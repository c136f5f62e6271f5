(** The verdict sweeps. Each one machine-checks a claim of the paper:
    robustness under stalled and killed threads ({!robustness}, with
    Crystalline's bounded reader steps, and {!service}), transparency
    under thread churn ({!churn}, §2.4), and that the native runtime
    orders the schemes as the simulator does ({!parity}). {!micro} is the
    per-scheme record of why a scheme wins: every bench scheme's full
    result (op-class costs, latency, lifecycle, series, allocator
    counters) on one grid.

    A scenario runs its sweep ([plan]), judges the rows with a pure
    function that returns named checks ([judge]), prints its tables
    ([render]) and describes its artifact ([body]). {!run} drives all five
    the same way: it prints the tables and the verdict, writes the
    envelope [{"schema_version", "kind", "verdict", "body"}] to
    [BENCH_<artifact>.json], re-reads it, and returns the re-read
    verdict's [ok] as the driver's exit status. *)

let schema_version = 1

type ctx = {
  scale : Plan.scale;
  domains : int option;
      (** sweep worker domains; for parity, the domains per native cell *)
  cache : string option;
  on_progress : (Executor.progress -> unit) option;
}

type 'a t = {
  kind : string;  (** the subcommand and the envelope's [kind] *)
  artifact : string;  (** the artifact file is [BENCH_<artifact>.json] *)
  doc : string;
  plan : ctx -> 'a * Executor.stats;
  judge : 'a -> Verdict.t;
  render : Format.formatter -> 'a -> unit;
  body : 'a -> Json.t;
}

type any = Any : 'a t -> any

(* -- the artifact envelope ----------------------------------------------- *)

let to_json ~kind verdict body =
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("kind", Json.String kind);
      ("verdict", Verdict.to_json verdict);
      ("body", body);
    ]

(** Inverse of {!to_json}: [(kind, verdict, body)]. *)
let of_json j =
  let open Json in
  let v = to_int (member_exn "schema_version" j) in
  if v <> schema_version then
    raise (Parse_error (Printf.sprintf "envelope: schema_version %d" v));
  ( to_str (member_exn "kind" j),
    Verdict.of_json (member_exn "verdict" j),
    member_exn "body" j )

(* -- shared sweep plumbing ----------------------------------------------- *)

(* The surviving rows of a sweep as (cell, result); failed cells go to
   stderr (the sweep itself survived them). *)
let ok_rows ~kind (summary : Executor.summary) =
  List.filter_map
    (fun (r : Executor.row) ->
      match r.Executor.outcome with
      | Executor.Done res -> Some (r.Executor.cell, res)
      | Executor.Failed msg ->
          Fmt.epr "%s: cell %s failed: %s@." kind r.Executor.cell.Plan.label
            msg;
          None)
    summary.Executor.rows

let budget_of (plan : Plan.t) =
  match plan.Plan.cells with
  | c :: _ -> (Plan.spec_of_cell c).Workload.budget
  | [] -> 0

let execute ctx plan =
  Executor.run ?domains:ctx.domains ?cache:ctx.cache
    ?on_progress:ctx.on_progress plan

let resident (r : Workload.result) =
  r.Workload.metrics.Smr.Metrics.mem.Mem.Mem_intf.bytes_resident

(* Last timeline sample at or before [t]. *)
let sample_at t (tl : Workload.sample list) =
  List.fold_left
    (fun acc (s : Workload.sample) ->
      if s.Workload.s_at <= t then Some s else acc)
    None tl

(* Resident bytes of every series on one 8-tick grid over the run; the
   series sample on the same clock, so columns compare row by row. *)
let print_timeline ppf ~budget series =
  Fmt.pf ppf "%-10s" "time";
  List.iter (fun (l, _) -> Fmt.pf ppf " %14s" l) series;
  Fmt.pf ppf "@.";
  for i = 1 to 8 do
    let t = budget * i / 8 in
    Fmt.pf ppf "%-10d" t;
    List.iter
      (fun (_, tl) ->
        match sample_at t tl with
        | Some s -> Fmt.pf ppf " %14d" s.Workload.s_resident
        | None -> Fmt.pf ppf " %14s" "-")
      series;
    Fmt.pf ppf "@."
  done

(* A sweep over timeline-sampled cells: the surviving rows and the run
   length their timelines cover. *)
type sweep = { budget : int; rows : (string * Workload.result) list }

let run_sweep ~kind plan ctx =
  let summary = execute ctx plan in
  let rows =
    List.map (fun (c, r) -> (c.Plan.label, r)) (ok_rows ~kind summary)
  in
  ({ budget = budget_of plan; rows }, summary.Executor.stats)

let residents sw = List.map (fun (l, r) -> (l, resident r)) sw.rows

(* -- micro: every bench scheme's full result on one grid ------------------ *)

(* The write-heavy hash map at 2 and 8 threads for the x86 bench schemes
   (the paper's nine plus the Crystalline pair). The artifact keeps each
   run's whole {!Executor.result_to_json} record, so the op-class costs,
   latency, lifecycle, series and allocator counters behind a ranking can
   be read back with {!Executor.result_of_json}. *)
let micro_schemes = Registry.bench_scheme_names

(* Every bench scheme has a run, and every run carries a scheme-specific
   series. Input: (scheme, series) per run. *)
let judge_micro runs =
  let missing =
    List.filter (fun s -> not (List.mem_assoc s runs)) micro_schemes
  in
  let empty =
    List.sort_uniq compare
      (List.filter_map (fun (s, series) -> if series = [] then Some s else None)
         runs)
  in
  Verdict.of_checks
    [
      ( "coverage",
        missing = [],
        if missing = [] then
          Printf.sprintf "all %d bench schemes have a run"
            (List.length micro_schemes)
        else "missing: " ^ String.concat ", " missing );
      ( "series",
        empty = [],
        if empty = [] then "every run carries a scheme-specific series"
        else "empty series: " ^ String.concat ", " empty );
    ]

let micro_plan ctx =
  let summary =
    execute ctx
      (Plan.grid ~name:"micro" ~arch:Registry.X86 ~scale:ctx.scale
         ~mix:Workload.write_heavy ~schemes:micro_schemes
         ~structures:[ Registry.Hashmap ] ~threads:[ 2; 8 ] ())
  in
  (ok_rows ~kind:"micro" summary, summary.Executor.stats)

let render_micro ppf runs =
  Fmt.pf ppf "# Micro — write-heavy hash map, x86 bench schemes@.@.";
  Fmt.pf ppf "%-14s %-8s %7s %10s %10s %8s %10s@." "scheme" "ds" "threads"
    "throughput" "avg-unrecl" "peak" "cost";
  List.iter
    (fun ((c : Plan.cell), (r : Workload.result)) ->
      Fmt.pf ppf "%-14s %-8s %7d %10.3f %10.1f %8d %10d@." c.Plan.scheme
        (Registry.structure_name c.Plan.structure)
        c.Plan.threads r.Workload.throughput r.Workload.avg_unreclaimed
        r.Workload.peak_unreclaimed
        (Smr_runtime.Sim_cell.total_cost r.Workload.op_costs))
    runs

let micro_body runs =
  Json.Obj
    [
      ( "runs",
        Json.List
          (List.map
             (fun ((c : Plan.cell), r) ->
               Json.Obj
                 [
                   ("scheme", Json.String c.Plan.scheme);
                   ( "structure",
                     Json.String (Registry.structure_name c.Plan.structure) );
                   ("threads", Json.Int c.Plan.threads);
                   ("result", Executor.result_to_json r);
                 ])
             runs) );
    ]

let micro =
  {
    kind = "micro";
    artifact = "micro";
    doc =
      "Every x86 bench scheme on the write-heavy hash map at 2 and 8 \
       threads, with each run's full result: op-class costs, latency, \
       lifecycle, series and allocator counters.";
    plan = micro_plan;
    judge =
      (fun runs ->
        judge_micro
          (List.map
             (fun ((c : Plan.cell), (r : Workload.result)) ->
               (c.Plan.scheme, r.Workload.metrics.Smr.Metrics.series))
             runs));
    render = render_micro;
    body = micro_body;
  }

(* -- churn: thread join/leave cost and orphan accounting ----------------- *)

type churn_row = {
  scheme : string;
  micro : float;  (** charged cost of one register/deregister cycle *)
  tput_ratio : float;  (** churned over static throughput *)
  stats : Workload.churn_stats;
}

(* Micro: charged cost of one register/deregister cycle, measured on a
   single simulated fiber with no other work — the per-thread price of
   joining the scheme. The registry bookkeeping itself is plain OCaml
   (uncosted), so this isolates exactly the reservation-cell traffic each
   scheme publishes: zero for the Hyaline engines (the paper's §2.4
   transparency claim) and Leaky, hp_indices stores for HP/HE, a couple of
   stores for EBR/IBR. *)
let micro_churn_cost (module S : Registry.SMR) =
  let module Sched = Smr_runtime.Scheduler in
  let iters = 500 in
  let t = S.create (Plan.base_cfg ~max_threads:4) in
  let sched = Sched.create () in
  ignore
    (Sched.spawn sched (fun () ->
         for _ = 1 to iters do
           S.deregister t (S.register t)
         done));
  (match Sched.run sched with
  | Sched.All_finished -> ()
  | _ -> invalid_arg "micro_churn_cost: did not finish");
  float_of_int (Sched.now sched) /. float_of_int iters

let transparent_schemes = [ "Hyaline-1"; "Hyaline" ]
let registering_schemes = [ "Epoch"; "HP"; "HE"; "IBR" ]

(* The transparent schemes' per-churn cost must be exactly zero, every
   registration scheme's positive; the sweep must run >= 2000 join/leave
   events and leave zero orphaned retirees unadopted at quiescence. *)
let judge_churn rows =
  let costs pass names =
    let micro n = List.find_opt (fun r -> String.equal r.scheme n) rows in
    ( List.for_all
        (fun n -> match micro n with Some r -> pass r.micro | None -> false)
        names,
      String.concat ", "
        (List.map
           (fun n ->
             match micro n with
             | Some r -> Printf.sprintf "%s %.2f" n r.micro
             | None -> n ^ " missing")
           names) )
  in
  let zero, zero_detail = costs (fun m -> m = 0.0) transparent_schemes in
  let pays, pays_detail = costs (fun m -> m > 0.0) registering_schemes in
  let sum f = List.fold_left (fun acc r -> acc + f r.stats) 0 rows in
  let events = sum (fun c -> c.Workload.c_joins + c.Workload.c_leaves) in
  let backlog = sum (fun c -> c.Workload.c_orphan_backlog) in
  Verdict.of_checks
    [
      ("transparent_zero", zero, "cost per churn, must be 0: " ^ zero_detail);
      ( "registration_pays",
        pays,
        "cost per churn, must be > 0: " ^ pays_detail );
      ( "churn_events",
        events >= 2000,
        Printf.sprintf "%d join/leave events (need >= 2000)" events );
      ( "orphan_backlog",
        backlog = 0,
        Printf.sprintf "%d orphaned retirees left unadopted at quiescence"
          backlog );
    ]

(* Macro: each scheme runs a static hashmap cell and an identical cell
   with >= 2000 session join/leave events; the row pairs the end-to-end
   throughput ratio with the micro cost and the slot-recycling and
   orphan-handoff accounting the lifecycle layer maintains. *)
let churn_plan ctx =
  let plan = Plan.churn_sweep ~scale:ctx.scale () in
  let sw, stats = run_sweep ~kind:"churn" plan ctx in
  let rows =
    List.filter_map
      (fun (cell : Plan.cell) ->
        let scheme = cell.Plan.scheme in
        let row l = List.assoc_opt l sw.rows in
        match (row scheme, row (scheme ^ "-static")) with
        | Some ({ Workload.churn = Some c; _ } as churned), Some static ->
            Some
              {
                scheme;
                micro =
                  (match Registry.Sim.scheme_of_name scheme with
                  | Some m -> micro_churn_cost m
                  | None -> nan);
                tput_ratio =
                  churned.Workload.throughput /. static.Workload.throughput;
                stats = c;
              }
        | _ -> None)
      (List.filter (fun (cell : Plan.cell) -> cell.Plan.churn <> None)
         plan.Plan.cells)
  in
  (rows, stats)

let render_churn ppf rows =
  Fmt.pf ppf
    "# Churn — session threads joining/leaving mid-run (hash map, 4 static \
     threads)@.@.";
  Fmt.pf ppf "%-10s %10s %12s %7s %7s %7s %9s %9s %8s %8s@." "scheme"
    "cost/churn" "tput-ratio" "joins" "leaves" "reuses" "reuse-lat" "orphaned"
    "adopted" "backlog";
  List.iter
    (fun r ->
      let c = r.stats in
      Fmt.pf ppf "%-10s %10.2f %12.3f %7d %7d %7d %9.0f %9d %8d %8d@." r.scheme
        r.micro r.tput_ratio c.Workload.c_joins c.Workload.c_leaves
        c.Workload.c_reuses c.Workload.c_avg_reuse_latency
        c.Workload.c_orphaned c.Workload.c_adopted c.Workload.c_orphan_backlog)
    rows

let churn_body rows =
  Json.Obj
    [
      ( "rows",
        Json.List
          (List.map
             (fun r ->
               let c = r.stats in
               Json.Obj
                 [
                   ("scheme", Json.String r.scheme);
                   ("cost_per_churn", Json.Float r.micro);
                   ("throughput_ratio", Json.Float r.tput_ratio);
                   ("joins", Json.Int c.Workload.c_joins);
                   ("leaves", Json.Int c.Workload.c_leaves);
                   ("reuses", Json.Int c.Workload.c_reuses);
                   ( "avg_reuse_latency",
                     Json.Float c.Workload.c_avg_reuse_latency );
                   ("orphaned", Json.Int c.Workload.c_orphaned);
                   ("adopted", Json.Int c.Workload.c_adopted);
                   ("orphan_backlog", Json.Int c.Workload.c_orphan_backlog);
                 ])
             rows) );
    ]

let churn =
  {
    kind = "churn";
    artifact = "churn";
    doc =
      "Thread churn: per-scheme join/leave cost, slot reuse and orphan \
       accounting under thousands of short-lived session threads.";
    plan = churn_plan;
    judge = judge_churn;
    render = render_churn;
    body = churn_body;
  }

(* -- service: the open-loop session-cache sweep -------------------------- *)

(* One {!Plan.service_sweep} cell reduced to an SLO row: served ops,
   sojourn p50/p99/p999 (arrival-to-completion, the client-visible
   latency), queue-delay p99 and the resident-byte trajectory. *)
type service_row = {
  label : string;
  error : string option;  (** [Some msg] for a failed cell (e.g. "OOM: …") *)
  ops : int;
  arrivals : int;
  served : int;
  hot_ops : int;
  reclaimer_wakes : int;
  queue_p99 : int;
  sojourn_p50 : int;
  sojourn_p99 : int;
  sojourn_p999 : float;
  resident_final : int;
  resident_hwm : int;
  oom_failures : int;
  timeline : Workload.sample list;
}

type service = {
  sv_scale : Plan.scale;
  sv_budget : int;
  sv_rows : service_row list;
}

let failed_row label msg =
  {
    label;
    error = Some msg;
    ops = 0;
    arrivals = 0;
    served = 0;
    hot_ops = 0;
    reclaimer_wakes = 0;
    queue_p99 = 0;
    sojourn_p50 = 0;
    sojourn_p99 = 0;
    sojourn_p999 = 0.0;
    resident_final = 0;
    resident_hwm = 0;
    oom_failures = 0;
    timeline = [];
  }

let row_of_result label (r : Workload.result) =
  let m = r.Workload.metrics.Smr.Metrics.mem in
  let sv = r.Workload.service in
  let svi f d = match sv with Some s -> f s | None -> d in
  {
    label;
    error = None;
    ops = r.Workload.ops;
    arrivals = svi (fun s -> s.Workload.sv_arrivals) 0;
    served = svi (fun s -> s.Workload.sv_served) 0;
    hot_ops = svi (fun s -> s.Workload.sv_hot_ops) 0;
    reclaimer_wakes = svi (fun s -> s.Workload.sv_reclaimer_wakes) 0;
    queue_p99 = svi (fun s -> Histogram.percentile s.Workload.sv_queue 99) 0;
    sojourn_p50 = svi (fun s -> Histogram.percentile s.Workload.sv_sojourn 50) 0;
    sojourn_p99 = svi (fun s -> Histogram.percentile s.Workload.sv_sojourn 99) 0;
    sojourn_p999 =
      svi (fun s -> Histogram.percentile_interp s.Workload.sv_sojourn 99.9) 0.0;
    resident_final = m.Mem.Mem_intf.bytes_resident;
    resident_hwm = m.Mem.Mem_intf.bytes_hwm;
    oom_failures = m.Mem.Mem_intf.oom_failures;
    timeline = r.Workload.timeline;
  }

let service_schemes =
  List.map
    (fun (c : Plan.cell) -> c.Plan.label)
    (Plan.service_sweep ()).Plan.cells

(* The paper's robustness claim restated as an SLO: under the storm,
   the stalled readers and the pressure spike, Hyaline-S keeps serving
   with a bounded p999 and a plateaued resident footprint, while Epoch's
   footprint — hostage to the stalled readers' horizon — either diverges
   (>= 2x Hyaline-S resident) or hits the byte budget and OOMs. The SLO
   bar: p999 sojourn under 1/50 of the whole run — roughly 3x the tail
   the healthy preset measures, and far below the "stopped serving"
   regime where queue delay grows with the run. The artifact must also
   cover every scheme of the sweep, each surviving row with a sampled
   timeline. *)
let judge_service ~budget rows =
  let tail_bound = float_of_int budget /. 50.0 in
  let find l = List.find_opt (fun r -> String.equal r.label l) rows in
  let get l = Option.value (find l) ~default:(failed_row l "missing") in
  let hs = get "Hyaline-S" and ep = get "Epoch" in
  let missing = List.filter (fun s -> find s = None) service_schemes in
  let unsampled =
    List.filter_map
      (fun r ->
        if r.error = None && r.timeline = [] then Some r.label else None)
      rows
  in
  let mid =
    match sample_at (budget / 2) hs.timeline with
    | Some s -> s.Workload.s_resident
    | None -> 0
  in
  let epoch_oom =
    match ep.error with Some m -> Executor.cacheable_failure m | None -> false
  in
  Verdict.of_checks
    [
      ( "coverage",
        missing = [],
        if missing = [] then
          Printf.sprintf "all %d schemes present" (List.length service_schemes)
        else "missing: " ^ String.concat ", " missing );
      ( "timelines",
        unsampled = [],
        if unsampled = [] then "every surviving row carries a timeline"
        else "no timeline: " ^ String.concat ", " unsampled );
      ( "kept_serving",
        hs.error = None && hs.served > 0,
        Printf.sprintf "Hyaline-S served %d" hs.served );
      ( "tail_bounded",
        hs.error = None && hs.sojourn_p999 > 0.0
        && hs.sojourn_p999 <= tail_bound,
        Printf.sprintf "Hyaline-S p999 %.0f <= %.0f (budget/50)"
          hs.sojourn_p999 tail_bound );
      ( "plateaued",
        mid > 0 && hs.resident_final <= 2 * mid,
        Printf.sprintf "Hyaline-S final resident %dB <= 2x mid-run %dB"
          hs.resident_final mid );
      ( "epoch_diverged",
        epoch_oom
        || ep.error = None && hs.resident_final > 0
           && ep.resident_final >= 2 * hs.resident_final,
        if epoch_oom then "Epoch OOM under the pressure spike"
        else
          Printf.sprintf "Epoch resident %dB >= 2x Hyaline-S %dB"
            ep.resident_final hs.resident_final );
    ]

let service_plan ctx =
  let plan = Plan.service_sweep ~scale:ctx.scale () in
  let summary = execute ctx plan in
  let sv_rows =
    List.map
      (fun (r : Executor.row) ->
        let label = r.Executor.cell.Plan.label in
        match r.Executor.outcome with
        | Executor.Done res -> row_of_result label res
        | Executor.Failed msg -> failed_row label msg)
      summary.Executor.rows
  in
  ( { sv_scale = ctx.scale; sv_budget = budget_of plan; sv_rows },
    summary.Executor.stats )

let render_service ppf t =
  Fmt.pf ppf
    "# Service — million-user session cache (open-loop bursty Zipf, hot-key \
     storm, 2 stalled readers, byte budget)@.@.";
  Fmt.pf ppf "%-11s %8s %8s %8s %7s %6s %6s %8s %6s %10s %10s %5s@." "scheme"
    "ops" "arrived" "served" "hot" "q-p99" "p50" "p99" "p999" "resident"
    "res-hwm" "recl";
  List.iter
    (fun r ->
      match r.error with
      | Some msg -> Fmt.pf ppf "%-11s FAILED: %s@." r.label msg
      | None ->
          Fmt.pf ppf "%-11s %8d %8d %8d %7d %6d %6d %8d %6.0f %10d %10d %5d@."
            r.label r.ops r.arrivals r.served r.hot_ops r.queue_p99
            r.sojourn_p50 r.sojourn_p99 r.sojourn_p999 r.resident_final
            r.resident_hwm r.reclaimer_wakes)
    t.sv_rows;
  Fmt.pf ppf "@.## resident bytes vs simulated time@.";
  print_timeline ppf ~budget:t.sv_budget
    (List.filter_map
       (fun r -> if r.error = None then Some (r.label, r.timeline) else None)
       t.sv_rows)

let service_row_json r =
  Json.Obj
    ([ ("label", Json.String r.label); ("ok", Json.Bool (r.error = None)) ]
    @ (match r.error with Some m -> [ ("error", Json.String m) ] | None -> [])
    @ [
        ("ops", Json.Int r.ops);
        ("arrivals", Json.Int r.arrivals);
        ("served", Json.Int r.served);
        ("hot_ops", Json.Int r.hot_ops);
        ("reclaimer_wakes", Json.Int r.reclaimer_wakes);
        ("queue_p99", Json.Int r.queue_p99);
        ("sojourn_p50", Json.Int r.sojourn_p50);
        ("sojourn_p99", Json.Int r.sojourn_p99);
        ("sojourn_p999", Json.Float r.sojourn_p999);
        ("resident_final", Json.Int r.resident_final);
        ("resident_hwm", Json.Int r.resident_hwm);
        ("oom_failures", Json.Int r.oom_failures);
        ( "timeline",
          Json.List (List.map Executor.sample_to_json r.timeline) );
      ])

let service_body t =
  Json.Obj
    [
      ("name", Json.String "service");
      ("paper", Json.String "Hyaline (PODC 2019)");
      ( "scale",
        Json.String
          (match t.sv_scale with Plan.Quick -> "quick" | Plan.Full -> "full")
      );
      ("budget", Json.Int t.sv_budget);
      ("rows", Json.List (List.map service_row_json t.sv_rows));
    ]

let service =
  {
    kind = "service";
    artifact = "service";
    doc =
      "The million-user session-cache service sweep: open-loop bursty \
       Zipfian traffic with a mid-run hot-key storm, read/write client \
       tiers, connection churn, 2 stalled readers, a periodic background \
       reclaimer and a byte-budget pressure spike, one cell per scheme. \
       Prints SLO percentiles (p50/p99/p999 sojourn, queue p99) and \
       resident-byte trajectories.";
    plan = service_plan;
    judge = (fun t -> judge_service ~budget:t.sv_budget t.sv_rows);
    render = render_service;
    body = service_body;
  }

(* -- robustness: a stalled or killed reader cannot block reclamation ------ *)

(* The paper's robustness claim (Table 1's "robust" column, Fig. 10a) and
   Crystalline's bounded reader steps, over one adversary. Memory: the
   {!Plan.robustness} executor sweep (cached), resident bytes over
   simulated time with two stalled readers. Faults: {!Verify.probe_all}
   under a stalled and a killed reader for every reclaiming scheme, each
   peak judged against the scheme's own [robust] flag. Steps:
   {!Verify.steps_probe}'s per-op reader cost under a starvation schedule.
   The probes are deterministic (fixed seeds, custom picker) and run
   uncached. *)
type probes = {
  faults : (Verify.robustness * Verify.robustness) list;
      (** per reclaiming scheme: its (stalled, killed) probe *)
  steps : Verify.steps list;
}

type robustness = { sweep : sweep; probes : probes }

(* Flat-step schemes and era-loop schemes whose reads grow with the
   adversary's allocation budget; the steps probe runs both, in order. *)
let flat_steps = [ "Epoch"; "Crystalline-W" ]
let growing_steps = [ "Hyaline-1S"; "Crystalline-L" ]

let probe_robustness () =
  {
    faults =
      List.combine
        (Verify.probe_all ~fault:`Stall ())
        (Verify.probe_all ~fault:`Kill ());
    steps = List.map Verify.steps_probe (flat_steps @ growing_steps);
  }

(* [contrast]: stalled Epoch's final resident bytes at least double those
   of every other {!Plan.robustness} series whose scheme claims
   robustness; a robust series missing from the sweep fails it.
   [fault_peaks]: each reclaiming scheme's stall and kill peaks sit on its
   own side of the bound — within it when robust, past twice it when not;
   an unprobed scheme fails it.
   [steps]: Epoch and Crystalline-W read in flat cost, the era-loop
   schemes do not. Input: final resident bytes per sweep series, and the
   probes. *)
let judge_robustness residents p =
  let bound = Verify.robust_bound in
  let robust l =
    List.exists
      (fun (r, _) -> r.Verify.r_scheme = l && r.Verify.r_robust)
      p.faults
  in
  let expected =
    List.filter
      (fun l -> l <> "Epoch" && robust l)
      (List.map (fun c -> c.Plan.label) (Plan.robustness ()).Plan.cells)
  in
  let missing =
    List.filter (fun l -> not (List.mem_assoc l residents)) expected
  in
  let others = List.filter (fun (l, _) -> List.mem l expected) residents in
  let epoch = Option.value (List.assoc_opt "Epoch" residents) ~default:0 in
  let misplaced =
    List.concat_map
      (fun (n, s) ->
        match List.find_opt (fun (r, _) -> r.Verify.r_scheme = n) p.faults with
        | None -> if Verify.reclaiming s then [ n ^ " unprobed" ] else []
        | Some (stalled, killed) ->
            List.filter_map
              (fun (fault, (r : Verify.robustness)) ->
                if
                  if r.Verify.r_robust then r.Verify.r_peak <= bound
                  else r.Verify.r_peak > 2 * bound
                then None
                else
                  Some
                    (Printf.sprintf "%s %s %d (robust=%b)" n fault
                       r.Verify.r_peak r.Verify.r_robust))
              [ ("stalled", stalled); ("killed", killed) ])
      Verify.schemes
  in
  let bounded n =
    List.find_map
      (fun s ->
        if s.Verify.s_scheme = n then Some s.Verify.s_bounded else None)
      p.steps
  in
  let wrong_steps =
    List.filter (fun n -> bounded n <> Some true) flat_steps
    @ List.filter (fun n -> bounded n <> Some false) growing_steps
  in
  Verdict.of_checks
    [
      ( "contrast",
        missing = [] && others <> []
        && List.for_all (fun (_, r) -> r > 0 && epoch >= 2 * r) others,
        Printf.sprintf
          "stalled Epoch resident %dB vs robust %s (need >= 2x); missing: [%s]"
          epoch
          (String.concat ", "
             (List.map (fun (l, r) -> Printf.sprintf "%s %dB" l r) others))
          (String.concat ", " missing) );
      ( "fault_peaks",
        misplaced = [],
        Printf.sprintf
          "%d schemes stalled and killed: robust <= %d, others > %d; \
           misplaced: [%s]"
          (List.length p.faults) bound (2 * bound)
          (String.concat ", " misplaced) );
      ( "steps",
        wrong_steps = [],
        Printf.sprintf "flat: %s; growing: %s; wrong: [%s]"
          (String.concat ", " flat_steps)
          (String.concat ", " growing_steps)
          (String.concat ", " wrong_steps) );
    ]

(* Final allocator counters, in table-column and body-field order. *)
let counter_names =
  [ "resident"; "hwm"; "slabs"; "reuse"; "fresh"; "pressure"; "oom" ]

let counters (r : Workload.result) =
  let m = r.Workload.metrics.Smr.Metrics.mem in
  Mem.Mem_intf.
    [
      m.bytes_resident;
      m.bytes_hwm;
      m.slabs_live;
      m.reuse_hits;
      m.fresh_allocs;
      m.pressure_events;
      m.oom_failures;
    ]

let render_robustness ppf { sweep = sw; probes = p } =
  Fmt.pf ppf
    "# Robustness — resident allocator bytes vs simulated time (hash map, 2 \
     stalled readers)@.@.";
  print_timeline ppf ~budget:sw.budget
    (List.map (fun (l, r) -> (l, r.Workload.timeline)) sw.rows);
  Fmt.pf ppf "@.## allocator counters (final)@.%-14s" "series";
  List.iter (Fmt.pf ppf " %10s") counter_names;
  List.iter
    (fun (l, r) ->
      Fmt.pf ppf "@.%-14s" l;
      List.iter (Fmt.pf ppf " %10d") (counters r))
    sw.rows;
  Fmt.pf ppf "@.@.## reader cost units per protect (adversary allocs on top)@.";
  Fmt.pf ppf "%-14s %8s" "scheme" "bounded";
  List.iter
    (fun (a, _) -> Fmt.pf ppf " %10d" a)
    (match p.steps with s :: _ -> s.Verify.s_costs | [] -> []);
  Fmt.pf ppf "@.";
  List.iter
    (fun (s : Verify.steps) ->
      Fmt.pf ppf "%-14s %8b" s.Verify.s_scheme s.Verify.s_bounded;
      List.iter (fun (_, c) -> Fmt.pf ppf " %10d" c) s.Verify.s_costs;
      Fmt.pf ppf "@.")
    p.steps;
  Fmt.pf ppf "@.## peak unreclaimed under a faulted reader (bound %d)@."
    Verify.robust_bound;
  Fmt.pf ppf "%-14s %6s %10s %10s %10s@." "scheme" "robust" "stalled" "killed"
    "retired";
  List.iter
    (fun ((s : Verify.robustness), (k : Verify.robustness)) ->
      Fmt.pf ppf "%-14s %6b %10d %10d %10d@." s.Verify.r_scheme
        s.Verify.r_robust s.Verify.r_peak k.Verify.r_peak s.Verify.r_retired)
    p.faults

let robustness_body { sweep = sw; probes = p } =
  Json.Obj
    [
      ("budget", Json.Int sw.budget);
      ( "series",
        Json.List
          (List.map
             (fun (l, (r : Workload.result)) ->
               Json.Obj
                 ((("label", Json.String l)
                  :: List.map2
                       (fun n v -> (n, Json.Int v))
                       counter_names (counters r))
                 @ [ ( "timeline",
                       Json.List
                         (List.map Executor.sample_to_json
                            r.Workload.timeline) ) ]))
             sw.rows) );
      ("bound", Json.Int Verify.robust_bound);
      ( "steps",
        Json.List
          (List.map
             (fun (s : Verify.steps) ->
               Json.Obj
                 [
                   ("scheme", Json.String s.Verify.s_scheme);
                   ("bounded", Json.Bool s.Verify.s_bounded);
                   ( "cost_per_op",
                     Json.List
                       (List.map
                          (fun (a, c) ->
                            Json.Obj
                              [ ("allocs", Json.Int a); ("cost", Json.Int c) ])
                          s.Verify.s_costs) );
                 ])
             p.steps) );
      ( "faulted_peaks",
        Json.List
          (List.map
             (fun ((s : Verify.robustness), (k : Verify.robustness)) ->
               Json.Obj
                 [
                   ("scheme", Json.String s.Verify.r_scheme);
                   ("robust", Json.Bool s.Verify.r_robust);
                   ("stalled", Json.Int s.Verify.r_peak);
                   ("killed", Json.Int k.Verify.r_peak);
                   ("retired", Json.Int s.Verify.r_retired);
                 ])
             p.faults) );
    ]

let robustness =
  {
    kind = "robustness";
    artifact = "robustness";
    doc =
      "Robustness under a stalled or killed reader: resident-bytes \
       trajectories under 2 permanently stalled readers across the \
       baselines and the Hyaline lineage, plus the uncached probes — peak \
       unreclaimed under stall and kill injection for every reclaiming \
       scheme, judged against its own robust flag, and per-op reader step \
       counts under a starvation schedule.";
    plan =
      (fun ctx ->
        let sweep, stats =
          run_sweep ~kind:"robustness" (Plan.robustness ~scale:ctx.scale ()) ctx
        in
        ({ sweep; probes = probe_robustness () }, stats));
    judge = (fun d -> judge_robustness (residents d.sweep) d.probes);
    render = render_robustness;
    body = robustness_body;
  }

(* -- parity: sim-vs-native ordering -------------------------------------- *)

let parity =
  {
    kind = "parity";
    artifact = "native";
    doc =
      "Cross-validate the simulator against the native runtime: run a \
       pinned ladder of the nine figure schemes on the hash map and the \
       list on both runtimes (native reps watchdog-guarded) and compare \
       the relative scheme orderings (throughput rank, peak-unreclaimed \
       rank); every ladder pair must have a simulated and a native row.";
    plan =
      (fun ctx ->
        Parity.collect ?cache:ctx.cache ?on_progress:ctx.on_progress
          ~domains:(Option.value ctx.domains ~default:2)
          ~scale:ctx.scale ());
    judge = Parity.judge_report;
    render = Parity.print;
    body = Parity.body;
  }

let all =
  [
    Any micro; Any robustness; Any churn; Any service; Any parity;
  ]

(* -- the driver ---------------------------------------------------------- *)

(* Print the tables and the verdict; with [out], write the envelope,
   re-read it and answer the re-read verdict — the self-check every
   scenario shares. *)
let run ?out ppf ctx (Any sc) =
  let data, stats = sc.plan ctx in
  sc.render ppf data;
  let verdict = sc.judge data in
  Fmt.pf ppf "@.%s verdict: %a@.%a@." sc.kind Verdict.pp verdict
    Executor.pp_stats stats;
  match out with
  | None -> verdict.Verdict.ok
  | Some dir ->
      Executor.mkdir_p dir;
      let path = Filename.concat dir ("BENCH_" ^ sc.artifact ^ ".json") in
      Executor.write_file path
        (Json.to_string (to_json ~kind:sc.kind verdict (sc.body data)));
      let kind, reread, _ =
        of_json (Json.of_string (Executor.read_file path))
      in
      if kind <> sc.kind then Fmt.failwith "%s: envelope kind %s" path kind;
      Fmt.pf ppf "wrote %s@." path;
      reread.Verdict.ok
