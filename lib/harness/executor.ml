(** See executor.mli — cached, fault-tolerant execution of experiment
    plans. *)

type outcome = Done of Workload.result | Failed of string

type row = {
  cell : Plan.cell;
  hash : string;
  outcome : outcome;
  from_cache : bool;
}

type stats = { total : int; executed : int; cache_hits : int; failed : int }
type summary = { plan_name : string; rows : row list; stats : stats }

type progress = {
  pr_index : int;
  pr_total : int;
  pr_cell : Plan.cell;
  pr_cached : bool;
  pr_ok : bool;
  pr_eta : float;
}

(* -- result serialization ------------------------------------------------- *)

let op_counts_to_json (c : Smr_runtime.Sim_cell.op_counts) =
  Json.Obj
    [
      ("reads", Json.Int c.reads);
      ("writes", Json.Int c.writes);
      ("plain_writes", Json.Int c.plain_writes);
      ("cas_ok", Json.Int c.cas_ok);
      ("cas_fail", Json.Int c.cas_fail);
      ("faas", Json.Int c.faas);
      ("swaps", Json.Int c.swaps);
      ("allocs", Json.Int c.allocs);
      ("read_cost", Json.Int c.read_cost);
      ("write_cost", Json.Int c.write_cost);
      ("plain_write_cost", Json.Int c.plain_write_cost);
      ("cas_cost", Json.Int c.cas_cost);
      ("faa_cost", Json.Int c.faa_cost);
      ("swap_cost", Json.Int c.swap_cost);
      ("alloc_cost", Json.Int c.alloc_cost);
    ]

let op_counts_of_json j : Smr_runtime.Sim_cell.op_counts =
  let i k = Json.to_int (Json.member_exn k j) in
  {
    reads = i "reads";
    writes = i "writes";
    plain_writes = i "plain_writes";
    cas_ok = i "cas_ok";
    cas_fail = i "cas_fail";
    faas = i "faas";
    swaps = i "swaps";
    allocs = i "allocs";
    read_cost = i "read_cost";
    write_cost = i "write_cost";
    plain_write_cost = i "plain_write_cost";
    cas_cost = i "cas_cost";
    faa_cost = i "faa_cost";
    swap_cost = i "swap_cost";
    alloc_cost = i "alloc_cost";
  }

let mem_stats_to_json (s : Mem.Mem_intf.stats) =
  Json.Obj
    [
      ("bytes_resident", Json.Int s.bytes_resident);
      ("bytes_hwm", Json.Int s.bytes_hwm);
      ("slab_bytes", Json.Int s.slab_bytes);
      ("slab_bytes_hwm", Json.Int s.slab_bytes_hwm);
      ("slabs_live", Json.Int s.slabs_live);
      ("reuse_hits", Json.Int s.reuse_hits);
      ("fresh_allocs", Json.Int s.fresh_allocs);
      ("pressure_events", Json.Int s.pressure_events);
      ("oom_failures", Json.Int s.oom_failures);
    ]

let mem_stats_of_json j : Mem.Mem_intf.stats =
  let i k = Json.to_int (Json.member_exn k j) in
  {
    bytes_resident = i "bytes_resident";
    bytes_hwm = i "bytes_hwm";
    slab_bytes = i "slab_bytes";
    slab_bytes_hwm = i "slab_bytes_hwm";
    slabs_live = i "slabs_live";
    reuse_hits = i "reuse_hits";
    fresh_allocs = i "fresh_allocs";
    pressure_events = i "pressure_events";
    oom_failures = i "oom_failures";
  }

let metrics_to_json (m : Smr.Metrics.snapshot) =
  Json.Obj
    [
      ("scheme", Json.String m.Smr.Metrics.scheme);
      ("allocated", Json.Int m.Smr.Metrics.allocated);
      ("retired", Json.Int m.Smr.Metrics.retired);
      ("freed", Json.Int m.Smr.Metrics.freed);
      ("peak_unreclaimed", Json.Int m.Smr.Metrics.peak_unreclaimed);
      ( "series",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) m.Smr.Metrics.series)
      );
      ("mem", mem_stats_to_json m.Smr.Metrics.mem);
    ]

let metrics_of_json metrics : Smr.Metrics.snapshot =
  let open Json in
  let i k v = to_int (member_exn k v) in
  {
    Smr.Metrics.scheme = to_str (member_exn "scheme" metrics);
    allocated = i "allocated" metrics;
    retired = i "retired" metrics;
    freed = i "freed" metrics;
    peak_unreclaimed = i "peak_unreclaimed" metrics;
    series =
      List.map
        (fun (k, v) -> (k, to_int v))
        (to_obj (member_exn "series" metrics));
    mem = mem_stats_of_json (member_exn "mem" metrics);
  }

let sample_to_json (s : Workload.sample) =
  Json.Obj
    [
      ("at", Json.Int s.Workload.s_at);
      ("resident", Json.Int s.Workload.s_resident);
      ("unreclaimed", Json.Int s.Workload.s_unreclaimed);
    ]

let sample_of_json j : Workload.sample =
  let i k = Json.to_int (Json.member_exn k j) in
  {
    Workload.s_at = i "at";
    s_resident = i "resident";
    s_unreclaimed = i "unreclaimed";
  }

let churn_to_json (c : Workload.churn_stats) =
  Json.Obj
    [
      ("joins", Json.Int c.Workload.c_joins);
      ("leaves", Json.Int c.Workload.c_leaves);
      ("session_ops", Json.Int c.Workload.c_session_ops);
      ("reuses", Json.Int c.Workload.c_reuses);
      ("avg_reuse_latency", Json.Float c.Workload.c_avg_reuse_latency);
      ("orphaned", Json.Int c.Workload.c_orphaned);
      ("adopted", Json.Int c.Workload.c_adopted);
      ("orphan_backlog", Json.Int c.Workload.c_orphan_backlog);
    ]

let churn_of_json j : Workload.churn_stats =
  let i k = Json.to_int (Json.member_exn k j) in
  {
    Workload.c_joins = i "joins";
    c_leaves = i "leaves";
    c_session_ops = i "session_ops";
    c_reuses = i "reuses";
    c_avg_reuse_latency = Json.to_float (Json.member_exn "avg_reuse_latency" j);
    c_orphaned = i "orphaned";
    c_adopted = i "adopted";
    c_orphan_backlog = i "orphan_backlog";
  }

let hist_to_json (h : Histogram.t) =
  Json.Obj
    [
      ( "buckets",
        Json.List (List.map (fun n -> Json.Int n) (Histogram.to_list h)) );
      ("sum", Json.Int (Histogram.sum h));
      ("max", Json.Int h.Histogram.max);
    ]

let hist_of_json j =
  let i k = Json.to_int (Json.member_exn k j) in
  Histogram.of_parts
    ~buckets:(List.map Json.to_int (Json.to_list (Json.member_exn "buckets" j)))
    ~sum:(i "sum") ~max:(i "max")

let service_to_json (s : Workload.service_stats) =
  Json.Obj
    [
      ("arrivals", Json.Int s.Workload.sv_arrivals);
      ("served", Json.Int s.Workload.sv_served);
      ("hot_ops", Json.Int s.Workload.sv_hot_ops);
      ("reclaimer_wakes", Json.Int s.Workload.sv_reclaimer_wakes);
      ("queue", hist_to_json s.Workload.sv_queue);
      ("sojourn", hist_to_json s.Workload.sv_sojourn);
    ]

let service_of_json j : Workload.service_stats =
  let i k = Json.to_int (Json.member_exn k j) in
  {
    Workload.sv_arrivals = i "arrivals";
    sv_served = i "served";
    sv_hot_ops = i "hot_ops";
    sv_reclaimer_wakes = i "reclaimer_wakes";
    sv_queue = hist_of_json (Json.member_exn "queue" j);
    sv_sojourn = hist_of_json (Json.member_exn "sojourn" j);
  }

let result_to_json (r : Workload.result) : Json.t =
  let m = r.Workload.metrics in
  Json.Obj
    ([
      ("ops", Json.Int r.Workload.ops);
      ("steps", Json.Int r.Workload.steps);
      ("throughput", Json.Float r.Workload.throughput);
      ("avg_unreclaimed", Json.Float r.Workload.avg_unreclaimed);
      ("peak_unreclaimed", Json.Int r.Workload.peak_unreclaimed);
      ( "final",
        Json.Obj
          [
            ("allocated", Json.Int r.Workload.final.Smr.Metrics.allocated);
            ("retired", Json.Int r.Workload.final.Smr.Metrics.retired);
            ("freed", Json.Int r.Workload.final.Smr.Metrics.freed);
          ] );
      ("metrics", metrics_to_json m);
      ( "latency",
        Json.Obj
          [
            ( "buckets",
              Json.List
                (List.map
                   (fun n -> Json.Int n)
                   (Histogram.to_list r.Workload.latency)) );
            ("sum", Json.Int (Histogram.sum r.Workload.latency));
            ("max", Json.Int r.Workload.latency.Histogram.max);
          ] );
      ("op_costs", op_counts_to_json r.Workload.op_costs);
      ("timeline", Json.List (List.map sample_to_json r.Workload.timeline));
    ]
    (* Present only for churn / open-loop runs respectively: cached
       entries without those features keep their historical shape
       byte-for-byte. *)
    @ (match r.Workload.churn with
      | None -> []
      | Some c -> [ ("churn", churn_to_json c) ])
    @
    match r.Workload.service with
    | None -> []
    | Some s -> [ ("service", service_to_json s) ])

let result_of_json j : Workload.result =
  let open Json in
  let i k v = to_int (member_exn k v) in
  let final = member_exn "final" j in
  let metrics = member_exn "metrics" j in
  let latency = member_exn "latency" j in
  {
    Workload.ops = i "ops" j;
    steps = i "steps" j;
    throughput = to_float (member_exn "throughput" j);
    avg_unreclaimed = to_float (member_exn "avg_unreclaimed" j);
    peak_unreclaimed = i "peak_unreclaimed" j;
    final =
      {
        Smr.Metrics.allocated = i "allocated" final;
        retired = i "retired" final;
        freed = i "freed" final;
      };
    metrics = metrics_of_json metrics;
    latency =
      Histogram.of_parts
        ~buckets:(List.map to_int (to_list (member_exn "buckets" latency)))
        ~sum:(i "sum" latency) ~max:(i "max" latency);
    op_costs = op_counts_of_json (member_exn "op_costs" j);
    timeline =
      List.map sample_of_json (to_list (member_exn "timeline" j));
    churn = Option.map churn_of_json (member "churn" j);
    service = Option.map service_of_json (member "service" j);
  }

(* -- the cache ------------------------------------------------------------ *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    (* Tolerate a concurrent creator. *)
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let cache_path dir hash = Filename.concat dir (hash ^ ".json")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  (* Write-then-rename: an interrupted sweep never leaves a truncated
     cache entry or artifact behind, only a stale .tmp that is overwritten
     next time. *)
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc text);
  Sys.rename tmp path

let cache_lookup ~dir cell hash : outcome option =
  let path = cache_path dir hash in
  if not (Sys.file_exists path) then None
  else
    try
      let j = Json.of_string (read_file path) in
      let key = Json.to_str (Json.member_exn "key" j) in
      (* The stored key must match exactly: catches both MD5 collisions
         and entries written by an incompatible key schema. *)
      if String.equal key (Plan.cell_key cell) then
        match Json.member "failure" j with
        | Some m -> Some (Failed (Json.to_str m))
        | None -> Some (Done (result_of_json (Json.member_exn "result" j)))
      else None
    with _ -> None

(* Only deterministic-by-construction outcomes are stored: completed
   results, and simulated OOM failures — under a fixed (spec, seed) a
   byte budget is exceeded at exactly the same step every run, so an OOM
   row is as reproducible as a result row. Every other failure (a bad
   spec, a safety violation, a harness bug) stays uncached so a fixed
   binary gets to retry it. *)
let cacheable_failure msg = String.length msg >= 4 && String.sub msg 0 4 = "OOM:"

let cache_store ~dir cell hash (outcome : outcome) =
  let payload =
    match outcome with
    | Done r -> Some [ ("result", result_to_json r) ]
    | Failed msg when cacheable_failure msg ->
        Some [ ("failure", Json.String msg) ]
    | Failed _ -> None
  in
  match payload with
  | None -> ()
  | Some payload ->
      let j =
        Json.Obj (("key", Json.String (Plan.cell_key cell)) :: payload)
      in
      write_file (cache_path dir hash) (Json.to_string j)

(* -- execution ------------------------------------------------------------ *)

let run_cell (c : Plan.cell) : outcome =
  match Registry.Sim.scheme_of_name ~arch:c.Plan.arch c.Plan.scheme with
  | None -> Failed (Printf.sprintf "unknown scheme %S" c.Plan.scheme)
  | Some scheme -> (
      let set = Registry.Sim.make_set c.Plan.structure scheme in
      match Workload.run set (Plan.spec_of_cell c) with
      | r -> Done r
      (* A simulated OOM is an expected experimental outcome under a byte
         budget (memory-pressure injection), not a harness bug: record it
         as a failure row the sweep carries forward. *)
      | exception Mem.Mem_intf.Out_of_memory msg -> Failed ("OOM: " ^ msg)
      | exception e -> Failed (Printexc.to_string e))

let run_cell_exn c =
  match run_cell c with
  | Done r -> r
  | Failed msg ->
      failwith
        (Printf.sprintf "Executor: cell %s/%s failed: %s" c.Plan.scheme
           (Registry.structure_name c.Plan.structure)
           msg)

(* One loop for every width: a shared atomic next-cell counter is the
   work queue (cells are independent and coarse-grained, so eager index
   handout is as good as stealing), the plan-ordered rows array is the
   join point for results, and the on-disk cache is the join point
   across runs — its write-then-rename stores and key-validated lookups
   are safe under concurrent writers. With more than one worker every
   cell simulates on whichever spawned domain claims it; the scheduler
   and cell-accounting state are domain-local, so results are
   bit-identical to one worker, which runs inline on the calling domain
   and never spawns (a spawned domain makes [Unix.fork] unsafe for the
   native watchdog). Only the progress callback order (completion
   order) differs. *)
let run ?(domains = 1) ?cache ?on_progress (plan : Plan.t) : summary =
  Option.iter mkdir_p cache;
  let cells = Array.of_list plan.Plan.cells in
  let total = Array.length cells in
  let workers = min domains total in
  let rows : row option array = Array.make total None in
  let next = Atomic.make 0 in
  let executed = Atomic.make 0
  and cache_hits = Atomic.make 0
  and failed = Atomic.make 0
  and finished = Atomic.make 0 in
  let progress_lock = Mutex.create () in
  let started = Unix.gettimeofday () in
  (* Cost-model ablations set the model on the calling domain; worker
     domains must price identically or cell hashes would lie. *)
  let costs = Smr_runtime.Sim_cell.current_costs () in
  let process idx =
    let cell = cells.(idx) in
    let hash = Plan.cell_hash cell in
    let cached =
      match cache with
      | Some dir -> cache_lookup ~dir cell hash
      | None -> None
    in
    let outcome, from_cache =
      match cached with
      | Some o ->
          Atomic.incr cache_hits;
          (o, true)
      | None ->
          Atomic.incr executed;
          let o = run_cell cell in
          Option.iter (fun dir -> cache_store ~dir cell hash o) cache;
          (o, false)
    in
    (match outcome with Failed _ -> Atomic.incr failed | Done _ -> ());
    rows.(idx) <- Some { cell; hash; outcome; from_cache };
    match on_progress with
    | None -> ()
    | Some f ->
        let fin = Atomic.fetch_and_add finished 1 + 1 in
        let elapsed = Unix.gettimeofday () -. started in
        let eta =
          elapsed /. float_of_int fin *. float_of_int (total - fin)
        in
        Mutex.protect progress_lock (fun () ->
            f
              {
                pr_index = fin;
                pr_total = total;
                pr_cell = cell;
                pr_cached = from_cache;
                pr_ok = (match outcome with Done _ -> true | Failed _ -> false);
                pr_eta = eta;
              })
  in
  let worker () =
    Smr_runtime.Sim_cell.set_costs costs;
    let rec loop () =
      let idx = Atomic.fetch_and_add next 1 in
      if idx < total then begin
        process idx;
        loop ()
      end
    in
    loop ()
  in
  if workers <= 1 then worker ()
  else Array.iter Domain.join (Array.init workers (fun _ -> Domain.spawn worker));
  let rows =
    Array.to_list
      (Array.map
         (function Some r -> r | None -> assert false (* all claimed above *))
         rows)
  in
  {
    plan_name = plan.Plan.name;
    rows;
    stats =
      {
        total;
        executed = Atomic.get executed;
        cache_hits = Atomic.get cache_hits;
        failed = Atomic.get failed;
      };
  }

(* -- reporting ------------------------------------------------------------ *)

let print_progress ppf (p : progress) =
  Fmt.pf ppf "[%4d/%-4d] %-16s %-8s t=%-3d %s%s eta %4.1fs@." p.pr_index
    p.pr_total p.pr_cell.Plan.label
    (Registry.structure_name p.pr_cell.Plan.structure)
    p.pr_cell.Plan.threads
    (if p.pr_cached then "cached " else "ran    ")
    (if p.pr_ok then "" else "FAILED ")
    p.pr_eta

let pp_stats ppf (s : stats) =
  Fmt.pf ppf "sweep: total=%d executed=%d cache_hits=%d failed=%d%s" s.total
    s.executed s.cache_hits s.failed
    (if s.total > 0 && s.cache_hits = s.total then " (100% cached)" else "")
