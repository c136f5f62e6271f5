(** Resilient plan executor: runs a {!Plan.t} cell by cell on the
    simulated runtime.

    - {b Fault tolerance}: a cell that raises (an SMR safety violation, a
      bad spec) becomes a recorded {!outcome.Failed} row; the sweep
      continues.
    - {b Result cache}: with a cache directory, every completed cell is
      written to [<dir>/<cell-hash>.json] and looked up before running —
      interrupted or repeated sweeps resume instead of recomputing. The
      cache key is {!Plan.cell_hash} (resolved spec + cost model), and the
      full {!Plan.cell_key} is stored in the file so collisions and stale
      entries are detected, not silently trusted. Simulated OOM failures
      (a deterministic outcome of memory-pressure injection under a fixed
      seed) are cached like results, as [{"key", "failure"}] entries;
      every other failure stays uncached so a fixed binary retries it.
    - {b Progress}: an optional callback receives one {!progress} per
      finished cell, with elapsed time and a remaining-time estimate —
      the harness-level counterpart of the scheduler's
      {!Smr_runtime.Scheduler.set_tracer} event sink.

    The cached-result serialization is a {e lossless} round trip of
    {!Workload.result} (including histogram sum/max and the per-class op
    costs), so a warm-cache sweep reproduces byte-identical reports. *)

type outcome =
  | Done of Workload.result
  | Failed of string  (** the raised exception, printed *)

type row = {
  cell : Plan.cell;
  hash : string;  (** {!Plan.cell_hash} at execution time *)
  outcome : outcome;
  from_cache : bool;
}

type stats = {
  total : int;
  executed : int;  (** cells actually simulated this run *)
  cache_hits : int;
  failed : int;
}

type summary = { plan_name : string; rows : row list; stats : stats }

type progress = {
  pr_index : int;  (** 1-based count of finished cells *)
  pr_total : int;
  pr_cell : Plan.cell;
  pr_cached : bool;
  pr_ok : bool;
  pr_elapsed : float;  (** seconds since the sweep started *)
  pr_eta : float;  (** estimated seconds remaining *)
}

val run_cell : Plan.cell -> outcome
(** Run one cell now, no cache, exceptions captured. *)

val run_cell_exn : Plan.cell -> Workload.result
(** Like {!run_cell} but re-raises [Failure] on a failed cell — for
    drivers that want the historical abort-on-error behaviour. *)

val run :
  ?domains:int ->
  ?cache:string ->
  ?on_progress:(progress -> unit) ->
  Plan.t ->
  summary
(** Execute every cell of the plan. [cache] is the cache directory
    (created if missing); omitted means no caching.

    [domains] (default 1) > 1 fans the cells out across that many worker
    {!Domain}s pulling from a shared atomic queue. Cells are independent
    and all simulator state is domain-local, so rows (order and content),
    failure rows, cache files and any report built from the summary are
    byte-identical to a sequential run — guarded by the determinism tests
    in [test/test_executor.ml]. Only the progress callbacks differ:
    they arrive in completion order (still one per cell, serialized) and
    time wall-clock rather than CPU seconds. *)

val cacheable_failure : string -> bool
(** True for failure messages the cache persists — currently the
    ["OOM: …"] rows a simulated byte budget produces deterministically.
    Also the test for "this failure is a simulated OOM" used by the
    {!Scenario.service} verdict. *)

val print_progress : Format.formatter -> progress -> unit
(** A terse one-line-per-cell progress printer for driver stderr. *)

val pp_stats : Format.formatter -> stats -> unit
(** Prints [sweep: total=%d executed=%d cache_hits=%d failed=%d], plus a
    ["(100% cached)"] suffix when every cell was a hit — the line
    [tools/check.sh] greps in the cache-resume smoke. *)

(* -- result serialization (the cache payload) --------------------------- *)

val result_to_json : Workload.result -> Json.t
val result_of_json : Json.t -> Workload.result
(** Inverses on everything {!Workload.run} produces; [result_of_json]
    raises {!Json.Parse_error} on schema violations. *)

val metrics_to_json : Smr.Metrics.snapshot -> Json.t
val metrics_of_json : Json.t -> Smr.Metrics.snapshot
(** The metrics-snapshot component of the cache payload, exposed so the
    native harness ({!Native_workload}, {!Parity}) serializes snapshots
    in exactly the same shape. *)
