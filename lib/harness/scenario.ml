(** The verdict sweeps. Each one machine-checks a claim of the paper:
    robustness under stalled threads ({!footprint}, {!service} and
    {!waitfree}, the last extending it to Crystalline), transparency under
    thread churn ({!churn}, §2.4), and that the native runtime orders the
    schemes as the simulator does ({!parity}).

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
  reps : int;  (** repetitions of each wall-clock measurement (parity) *)
}

type 'a t = {
  kind : string;  (** the subcommand and the envelope's [kind] *)
  artifact : string;  (** the artifact file is [BENCH_<artifact>.json] *)
  doc : string;
  deterministic : bool;
      (** the artifact is byte-reproducible from a fixed binary; parity's
          body is wall-clock *)
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

let read_json path =
  In_channel.with_open_bin path (fun ic ->
      Json.of_string (In_channel.input_all ic))

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

(* The surviving rows of a sweep as (label, result); failed cells go to
   stderr (the sweep itself survived them). *)
let ok_rows ~kind (summary : Executor.summary) =
  List.filter_map
    (fun (r : Executor.row) ->
      match r.Executor.outcome with
      | Executor.Done res -> Some (r.Executor.cell.Plan.label, res)
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

let timeline_json tl =
  Json.List
    (List.map
       (fun (s : Workload.sample) ->
         Json.Obj
           [
             ("at", Json.Int s.Workload.s_at);
             ("resident", Json.Int s.Workload.s_resident);
             ("unreclaimed", Json.Int s.Workload.s_unreclaimed);
           ])
       tl)

(* The robustness contrast footprint and waitfree share: stalled Epoch's
   final resident bytes at least double those of the robust scheme. *)
let contrast name ~robust residents =
  match (List.assoc_opt "Epoch" residents, List.assoc_opt robust residents) with
  | Some e, Some r ->
      ( name,
        r > 0 && e >= 2 * r,
        Printf.sprintf "stalled Epoch resident %dB vs %s %dB (need >= 2x)" e
          robust r )
  | _ -> (name, false, "missing the Epoch or " ^ robust ^ " series")

(* A sweep over timeline-sampled cells: the surviving rows and the run
   length their timelines cover. *)
type sweep = { budget : int; rows : (string * Workload.result) list }

let run_sweep ~kind plan ctx =
  let summary = execute ctx plan in
  ({ budget = budget_of plan; rows = ok_rows ~kind summary },
   summary.Executor.stats)

let residents sw = List.map (fun (l, r) -> (l, resident r)) sw.rows

(* -- footprint: resident bytes over simulated time ----------------------- *)

(* The unreclaimed-memory-vs-time view the paper discusses around Fig. 10a,
   rendered in allocator bytes: a write-heavy hash map with two permanently
   stalled readers. Epoch's horizon cannot pass the stalled guards, so its
   resident footprint grows for the whole run; robust schemes stay
   bounded. *)
let judge_footprint residents =
  Verdict.of_checks [ contrast "robust_contrast" ~robust:"Hyaline-S" residents ]

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

let render_footprint ppf sw =
  Fmt.pf ppf
    "# Footprint — resident allocator bytes vs simulated time (hash map, 2 \
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
  Fmt.pf ppf "@."

let footprint_body sw =
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
                 @ [ ("timeline", timeline_json r.Workload.timeline) ]))
             sw.rows) );
    ]

let footprint =
  {
    kind = "footprint";
    artifact = "footprint";
    doc = "Resident allocator bytes vs simulated time under stalled readers.";
    deterministic = true;
    plan =
      (fun ctx ->
        run_sweep ~kind:"footprint" (Plan.footprint ~scale:ctx.scale ()) ctx);
    judge = (fun sw -> judge_footprint (residents sw));
    render = render_footprint;
    body = footprint_body;
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
  let sw, stats =
    run_sweep ~kind:"churn" (Plan.churn_sweep ~scale:ctx.scale ()) ctx
  in
  let rows =
    List.filter_map
      (fun scheme ->
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
      (registering_schemes @ transparent_schemes)
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
    deterministic = true;
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
  sv_wall : float;  (** seconds the sweep took; stdout only, never the body *)
  sv_executed : int;
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

let service_schemes = [ "Epoch"; "HP"; "HE"; "IBR"; "Hyaline"; "Hyaline-S" ]

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
        if missing = [] then "all 6 schemes present"
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
  let started = Unix.gettimeofday () in
  let summary = execute ctx plan in
  let wall = Unix.gettimeofday () -. started in
  let sv_rows =
    List.map
      (fun (r : Executor.row) ->
        let label = r.Executor.cell.Plan.label in
        match r.Executor.outcome with
        | Executor.Done res -> row_of_result label res
        | Executor.Failed msg -> failed_row label msg)
      summary.Executor.rows
  in
  let stats = summary.Executor.stats in
  ( {
      sv_scale = ctx.scale;
      sv_budget = budget_of plan;
      sv_rows;
      sv_wall = wall;
      sv_executed = stats.Executor.executed;
    },
    stats )

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
       t.sv_rows);
  (* The step count is nominal (budget x executed cells; an OOM cell stops
     short of its budget). *)
  if t.sv_executed > 0 && t.sv_wall > 0.0 then
    Fmt.pf ppf
      "@.service throughput: %d cells x %d sim steps in %.2fs = %.3e \
       sim-steps/sec@."
      t.sv_executed t.sv_budget t.sv_wall
      (float_of_int (t.sv_budget * t.sv_executed) /. t.sv_wall)
  else
    Fmt.pf ppf "@.service throughput: all cells cached, no fresh execution@."

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
        ("timeline", timeline_json r.timeline);
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
    deterministic = true;
    plan = service_plan;
    judge = (fun t -> judge_service ~budget:t.sv_budget t.sv_rows);
    render = render_service;
    body = service_body;
  }

(* -- waitfree: the Crystalline memory + steps verdict -------------------- *)

(* Two halves. Memory: the {!Plan.waitfree} executor sweep (cached) — the
   footprint adversary over the Hyaline lineage; Crystalline-W must
   plateau while stalled Epoch diverges. Steps: the uncached
   {!Verify.waitfree_probe} — per-op reader cost under a starvation
   schedule plus the stall/kill peak-unreclaimed probes; Crystalline-W
   alone must be bounded on both axes. Both halves are deterministic
   (fixed seeds, custom picker), so the artifact is reproducible. *)
type waitfree = { sweep : sweep; probe : Verify.waitfree }

let judge_waitfree residents (wf : Verify.waitfree) =
  let flat =
    List.exists
      (fun s -> s.Verify.s_scheme = "Crystalline-W" && s.Verify.s_bounded)
      wf.Verify.wf_steps
  in
  Verdict.of_checks
    [
      contrast "plateau" ~robust:"Crystalline-W" residents;
      ( "probes",
        wf.Verify.wf_ok,
        Printf.sprintf
          "Crystalline-W steps flat=%b; stall/kill peaks against bound %d as \
           expected"
          flat wf.Verify.wf_bound );
    ]

let peak rows name =
  (List.find (fun r -> r.Verify.r_scheme = name) rows).Verify.r_peak

let render_waitfree ppf { sweep = sw; probe = wf } =
  Fmt.pf ppf
    "# Wait-freedom — resident allocator bytes vs simulated time (hash \
     map, 2 stalled readers)@.@.";
  print_timeline ppf ~budget:sw.budget
    (List.map (fun (l, r) -> (l, r.Workload.timeline)) sw.rows);
  Fmt.pf ppf "@.## reader cost units per protect (adversary allocs on top)@.";
  Fmt.pf ppf "%-14s %8s" "scheme" "bounded";
  List.iter
    (fun (a, _) -> Fmt.pf ppf " %10d" a)
    (match wf.Verify.wf_steps with s :: _ -> s.Verify.s_costs | [] -> []);
  Fmt.pf ppf "@.";
  List.iter
    (fun (s : Verify.steps) ->
      Fmt.pf ppf "%-14s %8b" s.Verify.s_scheme s.Verify.s_bounded;
      List.iter (fun (_, c) -> Fmt.pf ppf " %10d" c) s.Verify.s_costs;
      Fmt.pf ppf "@.")
    wf.Verify.wf_steps;
  Fmt.pf ppf "@.## peak unreclaimed under a faulted reader (bound %d)@."
    wf.Verify.wf_bound;
  Fmt.pf ppf "%-14s %10s %10s@." "scheme" "stalled" "killed";
  List.iter
    (fun name ->
      Fmt.pf ppf "%-14s %10d %10d@." name
        (peak wf.Verify.wf_stall name)
        (peak wf.Verify.wf_kill name))
    Verify.wf_mem_schemes

let waitfree_body { sweep = sw; probe = wf } =
  Json.Obj
    [
      ("bound", Json.Int wf.Verify.wf_bound);
      ( "resident",
        Json.Obj (List.map (fun (l, b) -> (l, Json.Int b)) (residents sw)) );
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
             wf.Verify.wf_steps) );
      ( "faulted_peaks",
        Json.List
          (List.map
             (fun name ->
               Json.Obj
                 [
                   ("scheme", Json.String name);
                   ("stalled", Json.Int (peak wf.Verify.wf_stall name));
                   ("killed", Json.Int (peak wf.Verify.wf_kill name));
                 ])
             Verify.wf_mem_schemes) );
    ]

let waitfree =
  {
    kind = "waitfree";
    artifact = "waitfree";
    doc =
      "The Crystalline wait-freedom sweep: resident-bytes trajectories \
       under 2 permanently stalled readers across the Hyaline lineage, \
       plus the uncached probes — per-op reader step counts under a \
       starvation schedule and peak unreclaimed under stall/kill \
       injection.";
    deterministic = true;
    plan =
      (fun ctx ->
        let sweep, stats =
          run_sweep ~kind:"waitfree" (Plan.waitfree ~scale:ctx.scale ()) ctx
        in
        ({ sweep; probe = Verify.waitfree_probe () }, stats));
    judge = (fun w -> judge_waitfree (residents w.sweep) w.probe);
    render = render_waitfree;
    body = waitfree_body;
  }

(* -- parity: sim-vs-native ordering -------------------------------------- *)

let parity =
  {
    kind = "parity";
    artifact = "native";
    doc =
      "Cross-validate the simulator against the native runtime: run the \
       full scheme x structure matrix on real domains (watchdog-guarded) \
       and compare the relative scheme orderings (throughput rank, \
       peak-unreclaimed rank) on a pinned ladder.";
    deterministic = false;
    plan =
      (fun ctx ->
        Parity.collect ?cache:ctx.cache ?on_progress:ctx.on_progress
          ~domains:(Option.value ctx.domains ~default:2)
          ~reps:ctx.reps ~scale:ctx.scale ());
    judge = Parity.judge_report;
    render = Parity.print;
    body = Parity.body;
  }

let all = [ Any footprint; Any churn; Any service; Any waitfree; Any parity ]

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
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir ("BENCH_" ^ sc.artifact ^ ".json") in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc
            (Json.to_string (to_json ~kind:sc.kind verdict (sc.body data))));
      let kind, reread, _ = of_json (read_json path) in
      if kind <> sc.kind then Fmt.failwith "%s: envelope kind %s" path kind;
      Fmt.pf ppf "wrote %s@." path;
      reread.Verdict.ok
