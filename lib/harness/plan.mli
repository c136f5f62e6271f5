(** Declarative experiment plans: {e what} to run, decoupled from {e how}
    ({!Executor} runs them).

    A plan is a named list of fully-resolved {!cell}s — one workload run
    each: scheme (by canonical {!Registry} name), structure, thread count,
    mix, and every override the {!Workload} spec admits. Each cell has a
    stable content hash over its {e resolved} inputs (the exact
    [Workload.spec] fields plus the scheme, structure, arch and the current
    {!Smr_runtime.Sim_cell} cost model), which keys the executor's on-disk
    result cache: two cells collide iff they would perform the identical
    simulated run. Presentation-only fields ([label], plan [name]) are
    excluded from the hash. *)

type scale = Quick | Full
(** Workload sizes are scaled ≈1/25 from the paper's configuration so a
    full sweep runs in seconds on one core; [Full] quadruples budgets and
    doubles sizes. The scaling is uniform across schemes, so relative
    shape is preserved. *)

type cell = {
  scheme : string;  (** canonical registry name *)
  label : string;  (** series label in tables/figures; default [scheme] *)
  structure : Registry.structure;
  arch : Registry.arch;
  scale : scale;
  threads : int;  (** active worker threads *)
  stalled : int;  (** extra stalled threads (Fig. 10a) *)
  mix : Workload.mix;
  budget : int option;  (** [None]: preset budget × max 1 (threads/4) *)
  prefill : int option;  (** [None]: preset prefill *)
  key_range : int option;  (** [None]: preset key range *)
  use_trim : bool;  (** Fig. 10b guard-refresh mode *)
  cfg : Smr.Smr_intf.config option;
      (** [None]: {!base_cfg}. [max_threads] is overridden either way to
          fit [threads + stalled + 1]. *)
  seed : int option;  (** [None]: [42 + threads] (the historical default) *)
  sample_every : int;
      (** footprint timeline sampling period in cost units (0 = off) *)
  churn : Workload.churn option;
      (** session-thread churn model; [max_threads] grows by the lane
          count so sessions always have slots to claim *)
  service : Workload.service option;
      (** open-loop traffic description; [None] is the closed-loop
          driver. [max_threads] grows by one when a background reclaimer
          is configured. *)
}

type t = { name : string; cells : cell list }

(* -- workload presets (shared by every driver) ------------------------- *)

val preset : scale -> Registry.structure -> int * int * int * int * int
(** [(prefill, key_range, budget, buckets, op_body)] per structure. *)

val base_cfg : max_threads:int -> Smr.Smr_intf.config
val x86_grid : scale -> int list
val ppc_grid : scale -> int list

val spec_of_cell : cell -> Workload.spec
(** Resolve a cell to the exact workload specification it runs. *)

(* -- builders ----------------------------------------------------------- *)

val cell :
  ?label:string ->
  ?arch:Registry.arch ->
  ?scale:scale ->
  ?stalled:int ->
  ?mix:Workload.mix ->
  ?budget:int ->
  ?prefill:int ->
  ?key_range:int ->
  ?use_trim:bool ->
  ?cfg:Smr.Smr_intf.config ->
  ?seed:int ->
  ?sample_every:int ->
  ?churn:Workload.churn ->
  ?service:Workload.service ->
  scheme:string ->
  structure:Registry.structure ->
  threads:int ->
  unit ->
  cell
(** Defaults: [arch = X86], [scale = Quick], [stalled = 0],
    [mix = Workload.write_heavy], [use_trim = false], [sample_every = 0],
    the rest [None]. *)

val grid :
  name:string ->
  ?arch:Registry.arch ->
  ?scale:scale ->
  ?mix:Workload.mix ->
  ?schemes:string list ->
  ?structures:Registry.structure list ->
  threads:int list ->
  unit ->
  t
(** The standard sweep: structure-major, then scheme, then thread count.
    Defaults: [schemes = Registry.scheme_names],
    [structures = Registry.paper_structures]. Pairs excluded by
    {!Registry.supported} are omitted. *)

val robustness : ?scale:scale -> unit -> t
(** The stalled-reader sweep (Fig. 10a): a write-heavy hashmap with 2
    stalled readers across Epoch / IBR / HP / Hyaline / Hyaline-S /
    Hyaline-1S / Crystalline-L / Crystalline-W, plus a no-stall Epoch
    baseline, each cell sampling a resident-bytes timeline every
    [budget/40] cost units — the memory half of
    [figures.exe robustness]; the fault and step probes run uncached in
    {!Verify}. *)

val service_sweep : ?scale:scale -> unit -> t
(** The session-cache service sweep (ROADMAP item 1): an open-loop
    hashmap cell per scheme (Epoch / HP / HE / IBR / Hyaline /
    Hyaline-S) with bursty Zipfian traffic, a mid-run hot-key storm,
    read/write client tiers, connection churn, 2 stalled readers, a
    periodic background reclaimer and a [budget_bytes] pressure cap —
    the scenario behind [figures.exe service] and its machine-checked
    robustness verdict. *)

val churn_sweep : ?scale:scale -> unit -> t
(** Thread-churn sweep: for each of Epoch / HP / HE / IBR / Hyaline-1 /
    Hyaline, a static hashmap cell and an identical cell with ≥ 1000
    join/leave session cycles (≥ 2000 churn events). The static cell is
    the baseline for the per-churn overhead delta in the churn figure;
    Hyaline-1's delta excludes any registration cost — the §2.4
    transparency claim, machine-checked by [figures.exe churn]. *)

(* -- identity ----------------------------------------------------------- *)

val cell_key : cell -> string
(** Canonical one-line rendering of everything that determines the run's
    outcome. Human-readable; stored alongside cached results so hash
    collisions are detectable. *)

val cell_hash : cell -> string
(** Hex MD5 of {!cell_key} — the cache key. *)
