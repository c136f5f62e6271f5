(** The workload orchestrator: prefill a set, then drive it with one of
    two {e traffic drivers} over the deterministic scheduler.

    - The {b closed-loop} driver (the paper's §6 hammer): N logical
      threads issue back-to-back operations over a uniform key range —
      offered load equals capacity, throughput is the headline number.
    - The {b open-loop} driver (enabled by [spec.service]): requests
      arrive on a deterministic arrival process ({!Traffic.arrival}) fed
      by the scheduler's cost clock; workers pull requests, sleeping
      through idle gaps with {!Scheduler.sleep_until}, so queue delay and
      arrival-to-completion sojourn are measured — the SLO view, where
      reclamation stalls show up as p999 latency instead of lost
      throughput. An optional background reclaimer thread
      ({!Traffic.reclaimer}) drives the scheme's [flush] path.

    Beyond the headline numbers each run collects, at zero simulated cost
    (see {!Measure}): per-op latencies in fixed-bucket {!Histogram}s, the
    per-op-class cost breakdown from {!Sim_cell}, footprint timelines,
    open-loop queue/sojourn histograms, and the scheme's full
    {!Smr.Metrics.snapshot}. None of this perturbs the simulation: for a
    fixed [(spec, seed)] the schedule, op count and consumed steps are
    bit-identical to an uninstrumented run.

    Everything runs on the deterministic scheduler, so a (spec, seed) pair
    is exactly reproducible. *)

module Sched = Smr_runtime.Scheduler

type mix = Traffic.mix = { read_pct : int; insert_pct : int }

let write_heavy = Traffic.write_heavy
let read_mostly = Traffic.read_mostly
let mix = Traffic.mix

(** The churn model: short-lived {e session} threads that join the scheme,
    run a burst of operations, deregister and leave, with the next session
    of the lane scheduled behind them — thousands of join/leave cycles per
    run, the workload ROADMAP items 1 and 5 need. [lanes] bounds how many
    sessions exist concurrently (each lane runs its share of [sessions]
    sequentially), so the scheme needs [lanes] spare slots beyond the
    static threads. *)
type churn = {
  sessions : int;  (** total join/leave cycles over the measured phase *)
  session_ops : int;  (** operations each session performs while joined *)
  lanes : int;  (** concurrent session lanes *)
}

type service = Traffic.service

type spec = {
  threads : int;
  stalled : int;  (** extra threads that enter and stall forever (Fig. 10a) *)
  key_range : int;
  prefill : int;
  mix : mix;
  budget : int;  (** simulated cost units for the measured phase *)
  seed : int;
  cfg : Smr.Smr_intf.config;
  use_trim : bool;
      (** keep one guard per thread and [refresh] between operations
          (Hyaline trims; baselines leave+enter) — Fig. 10b *)
  buckets : int;  (** hash-map buckets; ignored by the other structures *)
  sample_every : int;
      (** record a footprint timeline sample every this many cost units of
          the measured phase (0 = no timeline). Sampling reads only plain
          (uncosted) counters, so it never perturbs the schedule. *)
  churn : churn option;
      (** when set, session threads join/leave throughout the measured
          phase (see {!churn}); churn counters land in [result.churn] *)
  op_body : int;
      (** fixed per-operation cost charged for the work the cell-level
          model does not see — hashing, key comparisons, allocator work.
          Identical across schemes, so it only sets the ratio of useful
          work to SMR overhead (near zero for the list, whose long
          traversal is already fully charged). *)
  service : service option;
      (** when set, run the open-loop driver: arrivals, key distribution,
          client tiers and the background reclaimer all come from here;
          SLO accounting lands in [result.service]. [None] is the
          closed-loop driver, bit-identical to the historical one. *)
}

let default_spec =
  {
    threads = 4;
    stalled = 0;
    key_range = 4096;
    prefill = 2048;
    mix = write_heavy;
    budget = 100_000;
    seed = 42;
    cfg = Smr.Smr_intf.default_config;
    use_trim = false;
    buckets = 4096;
    sample_every = 0;
    churn = None;
    op_body = 0;
    service = None;
  }

type sample = Measure.sample = {
  s_at : int;
  s_resident : int;
  s_unreclaimed : int;
}

(** Churn accounting for one run (present when [spec.churn] is set). All
    counters are collected by the harness at zero simulated cost; the
    [orphaned]/[adopted] pair is read from the scheme's own metric series
    {e after} a teardown [flush], so [orphan_backlog] is the number of
    handed-off limbo nodes no scan ever adopted — the leak the churn
    verdict requires to be zero. *)
type churn_stats = {
  c_joins : int;
  c_leaves : int;
  c_session_ops : int;  (** operations performed inside sessions *)
  c_reuses : int;  (** sessions that recycled a previously-released slot *)
  c_avg_reuse_latency : float;
      (** mean cost units between a slot's release and its reuse *)
  c_orphaned : int;  (** limbo nodes handed off by departing sessions *)
  c_adopted : int;  (** orphaned nodes adopted by later scans *)
  c_orphan_backlog : int;  (** orphaned - adopted after the final flush *)
}

type service_stats = Measure.service_stats = {
  sv_arrivals : int;
  sv_served : int;
  sv_hot_ops : int;
  sv_reclaimer_wakes : int;
  sv_queue : Histogram.t;
  sv_sojourn : Histogram.t;
}

type result = {
  ops : int;
  steps : int;  (** cost units consumed by the measured phase *)
  throughput : float;  (** operations per 1000 cost units *)
  avg_unreclaimed : float;  (** mean over per-op samples of retired-freed *)
  peak_unreclaimed : int;
      (** largest per-op unreclaimed sample seen during the measured phase
          (the scheme's lifetime high-water mark is in [metrics]) *)
  final : Smr.Smr_intf.stats;
  metrics : Smr.Metrics.snapshot;  (** final scheme metrics snapshot *)
  latency : Histogram.t;  (** per-op latencies (cost units), all threads *)
  op_costs : Smr_runtime.Sim_cell.op_counts;
      (** atomic ops and their simulated cost charged during the measured
          phase, by operation class *)
  timeline : sample list;
      (** footprint samples in time order; empty unless [spec.sample_every]
          is positive *)
  churn : churn_stats option;
      (** churn accounting; present iff [spec.churn] was set *)
  service : service_stats option;
      (** open-loop SLO accounting; present iff [spec.service] was set *)
}

let run (module D : Smr_ds.Ds_intf.CONC_SET) (spec : spec) : result =
  if spec.prefill > spec.key_range then
    invalid_arg
      (Fmt.str
         "Workload.run: prefill (%d) exceeds key_range (%d) — the prefill \
          loop could never terminate"
         spec.prefill spec.key_range);
  let set = D.create ~buckets:spec.buckets spec.cfg in
  let reclaimer =
    match spec.service with
    | None -> Traffic.No_reclaimer
    | Some sv -> sv.Traffic.reclaimer
  in
  let reclaimer_threads =
    match reclaimer with Traffic.No_reclaimer -> 0 | _ -> 1
  in
  (* Pre-register every static thread (prefill + workers + stalled + the
     background reclaimer, if any) in tid order, from outside any
     simulated run: the charged stores of [register] are free out here,
     the dense slots come out equal to the tids, and the live-slot scans
     the schemes now run read exactly the cells the old full-capacity
     scans read — so churn-free schedules (and their pinned golden
     hashes) are bit-identical. *)
  let static_tids = 1 + spec.threads + spec.stalled + reclaimer_threads in
  (match spec.churn with
  | None -> ()
  | Some ch ->
      if static_tids + max 1 ch.lanes > spec.cfg.max_threads then
        invalid_arg
          (Fmt.str
             "Workload.run: churn needs %d slots (%d static + %d lanes) but               cfg.max_threads is %d"
             (static_tids + max 1 ch.lanes)
             static_tids (max 1 ch.lanes) spec.cfg.max_threads));
  for tid = 0 to min static_tids spec.cfg.max_threads - 1 do
    ignore (D.register ~tid set)
  done;
  let sched = Sched.create ~seed:spec.seed () in
  (* Phase 1: prefill from a single simulated thread (tid 0, reused by
     worker 0 afterwards — it holds no guard across the phases). *)
  ignore
    (Sched.spawn sched (fun () ->
         let rng = Random.State.make [| spec.seed; 0xf111 |] in
         let filled = ref 0 in
         while !filled < spec.prefill do
           if D.insert set (Random.State.int rng spec.key_range) then
             incr filled
         done));
  (match Sched.run sched with
  | Sched.All_finished -> ()
  | Sched.Budget_exhausted | Sched.Only_stalled ->
      invalid_arg "Workload.run: prefill did not finish");
  let steps0 = Sched.now sched in
  let counts0 = Smr_runtime.Sim_cell.snapshot_counts () in
  let ops = Array.make spec.threads 0 in
  let meas = Measure.create ~threads:spec.threads ~sample_every:spec.sample_every in
  let resident_of () =
    (D.metrics set).Smr.Metrics.mem.Mem.Mem_intf.bytes_resident
  in
  (* The per-op core both drivers share: charge the op body, draw the key
     and the mix dice from the worker's own RNG (in that order — the
     closed-loop draw sequence is part of the golden schedules), run the
     chosen operation and record the unreclaimed/timeline samples. *)
  let one_op rng ~mix ~key g =
    if spec.op_body > 0 then Sched.step spec.op_body;
    let key = key rng in
    let dice = Random.State.int rng 100 in
    (match Traffic.op_of_dice mix dice with
    | Traffic.Read -> ignore (D.contains_with set g key)
    | Traffic.Insert -> ignore (D.insert_with set g key)
    | Traffic.Delete -> ignore (D.remove_with set g key));
    let s = D.stats set in
    let u = Smr.Smr_intf.unreclaimed s in
    Measure.observe meas u;
    if spec.sample_every > 0 then
      Measure.maybe_sample meas ~at:(Sched.now sched - steps0) resident_of u
  in
  let uniform_key rng = Random.State.int rng spec.key_range in
  (* Open-loop driver state: one shared arrival stream and key generator
     (workers pull requests in schedule order), one mix per worker tier. *)
  let open_state =
    match spec.service with
    | None -> None
    | Some sv ->
        Some
          ( Traffic.arrivals ~start:steps0 ~seed:spec.seed sv.Traffic.arrival,
            Traffic.keygen ?storm:sv.Traffic.storm ~key_range:spec.key_range
              sv.Traffic.keys,
            Traffic.tier_mixes ~threads:spec.threads ~default:spec.mix
              sv.Traffic.tiers )
  in
  let closed_worker tid () =
    let rng = Random.State.make [| spec.seed; tid |] in
    if spec.use_trim then begin
      let g = ref (D.enter set) in
      while true do
        let t0 = Sched.now sched in
        one_op rng ~mix:spec.mix ~key:uniform_key !g;
        ops.(tid) <- ops.(tid) + 1;
        g := D.refresh set !g;
        Measure.add_latency meas tid (Sched.now sched - t0)
      done
    end
    else
      while true do
        let t0 = Sched.now sched in
        let g = D.enter set in
        one_op rng ~mix:spec.mix ~key:uniform_key g;
        D.leave set g;
        Measure.add_latency meas tid (Sched.now sched - t0);
        ops.(tid) <- ops.(tid) + 1
      done
  in
  (* Open-loop worker: pull the next request from the shared arrival
     stream, sleep through the idle gap if it has not arrived yet (the
     scheduler fast-forwards when everyone is idle — idle servers burn no
     budget), then serve it. Queue delay is service start minus arrival;
     sojourn is completion minus arrival — the client-visible latency. *)
  let open_worker (stream, kg, mixes) tid () =
    let rng = Random.State.make [| spec.seed; tid |] in
    let mix = mixes.(tid) in
    let svc_key rng =
      Traffic.key kg rng ~now:(Sched.now sched - steps0)
        ~key_range:spec.key_range
    in
    let serve g =
      let arrival = Traffic.next_arrival stream in
      Measure.arrived meas;
      if arrival > Sched.now sched then Sched.sleep_until arrival;
      let t0 = Sched.now sched in
      one_op rng ~mix ~key:svc_key g;
      let fin = Sched.now sched in
      Measure.served meas ~queue:(t0 - arrival) ~sojourn:(fin - arrival);
      Measure.add_latency meas tid (fin - t0);
      ops.(tid) <- ops.(tid) + 1
    in
    if spec.use_trim then begin
      let g = ref (D.enter set) in
      while true do
        serve !g;
        g := D.refresh set !g
      done
    end
    else
      while true do
        let g = D.enter set in
        serve g;
        D.leave set g
      done
  in
  for tid = 0 to spec.threads - 1 do
    ignore
      (Sched.spawn sched
         (match open_state with
         | None -> closed_worker tid
         | Some st -> open_worker st tid))
  done;
  (* Churn lanes: each lane chains its sessions with [spawn_at], so every
     session is a first-class Ev_join/Ev_leave churn thread. All harness
     bookkeeping here is plain OCaml (uncosted); the only charged work is
     what the scheme itself does in register/enter/ops/leave/deregister —
     the per-churn overhead the figures driver reports. Sessions always
     drive closed-loop op generation (spec.mix, uniform keys): they model
     connection churn, not the request stream. *)
  let c_joins = ref 0 in
  let c_leaves = ref 0 in
  let c_session_ops = ref 0 in
  let c_reuses = ref 0 in
  let c_reuse_lat = ref 0 in
  let released_at = Array.make (max 1 spec.cfg.max_threads) (-1) in
  (match spec.churn with
  | None -> ()
  | Some ch when ch.sessions <= 0 -> ()
  | Some ch ->
      let lanes = max 1 ch.lanes in
      let rec session lane rng remaining () =
        incr c_joins;
        let s = D.register set in
        let sid = (s : Smr.Smr_intf.slot).id in
        if released_at.(sid) >= 0 then begin
          incr c_reuses;
          c_reuse_lat := !c_reuse_lat + (Sched.now sched - released_at.(sid))
        end;
        let g = D.enter set in
        for _ = 1 to ch.session_ops do
          one_op rng ~mix:spec.mix ~key:uniform_key g;
          incr c_session_ops
        done;
        D.leave set g;
        D.deregister set s;
        released_at.(sid) <- Sched.now sched;
        incr c_leaves;
        if remaining > 1 then
          Sched.spawn_at sched
            ~at:(Sched.now sched + 1)
            (session lane rng (remaining - 1))
      in
      for lane = 0 to lanes - 1 do
        let share =
          (ch.sessions / lanes) + (if lane < ch.sessions mod lanes then 1 else 0)
        in
        if share > 0 then
          let rng = Random.State.make [| spec.seed; 0x5e55; lane |] in
          Sched.spawn_at sched ~at:(steps0 + 1 + lane) (session lane rng share)
      done);
  (* Stalled threads: enter (optionally after touching the structure) and
     park forever while holding the guard. *)
  for _ = 1 to spec.stalled do
    ignore
      (Sched.spawn sched (fun () ->
           let g = D.enter set in
           ignore (D.contains_with set g 0);
           Sched.stall ()))
  done;
  (* The background reclaimer (open-loop only): a service thread driving
     the scheme's mid-run-safe [relieve] path — scans for the baseline
     schemes, allocation-free batch sealing for the Hyaline engines (the
     quiescence-only [flush] would pad partial batches with dummy
     allocations mid-run, inflating the very footprint it exists to
     bound). Its tid is the last pre-registered static slot, so any
     pressure-triggered per-thread relief from inside its scans resolves
     to a registered slot. *)
  (match reclaimer with
  | Traffic.No_reclaimer -> ()
  | Traffic.Periodic period ->
      let period = max 1 period in
      ignore
        (Sched.spawn sched (fun () ->
             while true do
               Sched.sleep_until (Sched.now sched + period);
               D.relieve set;
               Measure.reclaimer_woke meas
             done))
  | Traffic.Dedicated round_cost ->
      let round_cost = max 1 round_cost in
      ignore
        (Sched.spawn sched (fun () ->
             while true do
               D.relieve set;
               Measure.reclaimer_woke meas;
               Sched.step round_cost
             done)));
  (match Sched.run ~budget:spec.budget sched with
  | Sched.Budget_exhausted | Sched.Only_stalled -> ()
  | Sched.All_finished -> invalid_arg "Workload.run: workers terminated");
  let steps = Sched.now sched - steps0 in
  let total_ops = Array.fold_left ( + ) 0 ops + !c_session_ops in
  let latency = Measure.merged_latency meas in
  (* Capture the result views before the churn teardown flush below can
     perturb them. *)
  let final_stats = D.stats set in
  let final_metrics = D.metrics set in
  let service_stats =
    match open_state with
    | None -> None
    | Some (_, kg, _) ->
        Some (Measure.service_stats meas ~hot_ops:(Traffic.hot_ops kg))
  in
  let churn_stats =
    match spec.churn with
    | None -> None
    | Some _ ->
        (* Teardown flush: scans adopt any orphan handoffs still parked on
           the global list, so a non-zero backlog afterwards is a genuine
           leak, not an unlucky cut-off. *)
        D.flush set;
        let m = D.metrics set in
        let series name =
          Option.value ~default:0 (Smr.Metrics.series_value m name)
        in
        let orphaned = series "orphaned" in
        let adopted = series "adopted" in
        Some
          {
            c_joins = !c_joins;
            c_leaves = !c_leaves;
            c_session_ops = !c_session_ops;
            c_reuses = !c_reuses;
            c_avg_reuse_latency =
              (if !c_reuses = 0 then 0.0
               else float_of_int !c_reuse_lat /. float_of_int !c_reuses);
            c_orphaned = orphaned;
            c_adopted = adopted;
            c_orphan_backlog = orphaned - adopted;
          }
  in
  {
    ops = total_ops;
    steps;
    throughput =
      (if steps = 0 then 0.0
       else 1000.0 *. float_of_int total_ops /. float_of_int steps);
    avg_unreclaimed = Measure.avg_unreclaimed meas;
    peak_unreclaimed = Measure.peak_unreclaimed meas;
    final = final_stats;
    metrics = final_metrics;
    latency;
    op_costs =
      Smr_runtime.Sim_cell.diff_counts
        ~now:(Smr_runtime.Sim_cell.snapshot_counts ())
        ~past:counts0;
    timeline = Measure.timeline meas;
    churn = churn_stats;
    service = service_stats;
  }
