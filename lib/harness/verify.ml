(** Conformance verification: machine-check every registered SMR scheme
    against every data structure under the three {!Smr_runtime.Explore}
    modes (sleep-set DFS, weighted random walks, PCT), plus seeded
    stall- and kill-injection probes and a reader-steps probe that the
    [robustness] scenario judges against each scheme's own [robust]
    flag.

    The oracle stack per execution: the lifecycle auditor (use-after-free
    / double-free raise), deadlock detection, and a quiescence
    post-condition ([flush]; every retired node freed — skipped for
    Leaky, which frees nothing by design). The robustness probes use
    {!Smr.Metrics} peak-unreclaimed snapshots as the bounded-memory
    oracle. Violations are shrunk and can be written to a replayable
    trace file ({!Trace_file}). *)

module Explore = Smr_runtime.Explore

module type SMR = Smr.Smr_intf.SMR
module type CONC_SET = Smr_ds.Ds_intf.CONC_SET

(* ------------------------------------------------------------------ *)
(* The scheme x structure grid                                         *)
(* ------------------------------------------------------------------ *)

(* Every scheme over the simulated runtime — the Registry's full set,
   including the LL/SC-headed Hyaline variants, so both head
   implementations are conformance-checked. The structure axis is the
   Registry's too: there is no private list here any more. *)
let schemes : (string * (module SMR)) list = Registry.Sim.every_scheme

let scheme_of_name n = List.assoc_opt n schemes

(* Aggressive-reclamation config: tiny batches and eras so every few
   operations cross a seal/scan boundary — the reclamation machinery is
   exercised even by the micro programs DFS can exhaust. *)
let tiny_cfg ~threads =
  {
    Smr.Smr_intf.default_config with
    max_threads = threads;
    slots = 2;
    batch_size = 2;
    era_freq = 2;
    ack_threshold = 4;
  }

(* Shape of every conformance program: [threads] threads of [ops]
   operations each over [keys] keys, drawn from [prog_seed]. *)
let threads = 2
let ops = 2
let keys = 2
let prog_seed = 7

(* Writer threads beside the faulted reader in {!robustness_probe}. *)
let writers = 2

let reclaiming (module S : SMR) = S.scheme_name <> "Leaky"

(* One uniform program over the set facade: the stack and queue
   participate through the Registry's set-view adapters (insert = push /
   enqueue, remove = pop / dequeue, contains = peek), so their retire
   paths and protected traversals are exercised by the same generator.
   The queue's dummy node is always live, so quiescence leaves
   retired == freed there too, same as the sets.

   With [churn], every thread runs two register/deregister sessions with
   its operations in between, so exploration interleaves joins, leaves,
   orphan handoffs and slot recycling with the structure operations
   themselves. The post-condition then additionally requires the orphan
   list to be fully adopted: a departing thread's limbo must never be
   stranded. *)
let program_for ?(churn = false) (module S : SMR) structure : Explore.program
    =
  let module D = (val Registry.Sim.make_set structure (module S)) in
  let reclaiming = reclaiming (module S) in
  fun () ->
    let set =
      D.create ~buckets:2
        (tiny_cfg ~threads:(if churn then 2 * threads else threads))
    in
    let run_ops rng =
      for _ = 1 to ops do
        let k = Random.State.int rng keys in
        match Random.State.int rng 3 with
        | 0 -> ignore (D.insert set k)
        | 1 -> ignore (D.remove set k)
        | _ -> ignore (D.contains set k)
      done
    in
    let body tid () =
      let rng = Random.State.make [| prog_seed; tid |] in
      if churn then
        for _session = 1 to 2 do
          let s = D.register set in
          run_ops rng;
          D.deregister set s
        done
      else run_ops rng
    in
    ( List.init threads body,
      fun () ->
        D.flush set;
        let adopted () =
          let m = D.metrics set in
          let v n = Option.value ~default:0 (Smr.Metrics.series_value m n) in
          v "orphaned" = v "adopted"
        in
        ((not churn) || adopted ())
        && ((not reclaiming) || Smr.Smr_intf.unreclaimed (D.stats set) = 0) )

(* ------------------------------------------------------------------ *)
(* The conformance matrix                                              *)
(* ------------------------------------------------------------------ *)

type verdict =
  | Pass of int  (** executions performed (exhaustive or budgeted) *)
  | Fail of { schedule : int list; shrunk : int list; message : string }
  | Skipped of string  (** structure/scheme pair excluded, with reason *)

type cell = {
  c_scheme : string;
  c_structure : Registry.structure;
  c_mode : Explore.mode;
  c_churn : bool;  (** threads join/leave mid-program (churn column) *)
  c_verdict : verdict;
}

let mode_name = function
  | Explore.Dfs -> "dfs"
  | Explore.Random_walk _ -> "random"
  | Explore.Pct _ -> "pct"

type budgets = { dfs_limit : int; walks : int; change_points : int }

let smoke_budgets = { dfs_limit = 150; walks = 12; change_points = 3 }

let modes_of_budgets b =
  [
    Explore.Dfs;
    Explore.Random_walk { walks = b.walks };
    Explore.Pct { walks = b.walks; change_points = b.change_points };
  ]

let run_cell ~seed ~budgets ~churn (scheme_name, (module S : SMR)) structure
    mode : cell =
  let verdict =
    if not (Registry.supported structure scheme_name) then
      Skipped "hazard-pointer schemes cannot protect a snapshot traversal"
    else begin
      let program = program_for ~churn (module S) structure in
      match
        Explore.explore ~mode ~seed ~limit:budgets.dfs_limit program
      with
      | Explore.Exhausted n | Explore.Limit_reached n -> Pass n
      | Explore.Violation { schedule; message } ->
          let shrunk = Explore.shrink program schedule in
          Fail { schedule; shrunk; message }
    end
  in
  {
    c_scheme = scheme_name;
    c_structure = structure;
    c_mode = mode;
    c_churn = churn;
    c_verdict = verdict;
  }

(* Every scheme x every structure x every mode of [budgets] x
   {static, churn}, scheme-major. *)
let run_matrix ?(seed = 0) ?(budgets = smoke_budgets) () : cell list =
  List.concat_map
    (fun s ->
      List.concat_map
        (fun structure ->
          List.concat_map
            (fun mode ->
              List.map
                (fun churn -> run_cell ~seed ~budgets ~churn s structure mode)
                [ false; true ])
            (modes_of_budgets budgets))
        Registry.structures)
    schemes

let failures cells =
  List.filter (fun c -> match c.c_verdict with Fail _ -> true | _ -> false)
    cells

(* ------------------------------------------------------------------ *)
(* Stall-injection robustness probes                                   *)
(* ------------------------------------------------------------------ *)

type robustness = {
  r_scheme : string;
  r_robust : bool;  (** the scheme's own claim (Table 1) *)
  r_peak : int;  (** peak retired-but-unreclaimed with a stalled reader *)
  r_retired : int;  (** total retired, for scale *)
}

(* One reader enters its bracket and is stalled by fault injection
   mid-operation — it holds its reservation forever, exactly the paper's
   Fig. 10a adversary. Writers then churn 160 insert/remove pairs each
   over disjoint keys, so every pair retires exactly one node. A robust
   scheme's peak unreclaimed stays bounded by its batch geometry; a
   non-robust scheme's grows linearly with the churn.

   [fault] picks the adversary: [`Stall] parks the reader forever
   (Fig. 10a); [`Kill] discards it outright — a crashed thread whose
   guard is abandoned in place, the harsher model the Crystalline
   wait-freedom probes add.

   The fault plan makes the entry deterministic under ANY picker: the
   writers are suspended for the first [handoff] decisions, so only the
   reader runs until it is provably inside its bracket (enter plus a few
   protected reads); at decision [handoff] the reader is stalled for
   good and the writers are released. *)
let robustness_probe ~fault ~name (module S : SMR) : robustness =
  let module Map = Smr_ds.Michael_hashmap.Make (S) in
  let captured = ref None in
  let program () =
    let cfg =
      {
        (tiny_cfg ~threads:(writers + 1)) with
        Smr.Smr_intf.slots = 4;
        batch_size = 8;
        era_freq = 8;
        ack_threshold = 16;
      }
    in
    let map = Map.create ~buckets:8 cfg in
    let reader () =
      let g = Map.enter map in
      for _ = 1 to 10_000 do
        ignore (Map.contains_with map g 0)
      done;
      Map.leave map g
    in
    let writer tid () =
      let base = tid * 100 in
      for i = 1 to 160 do
        let k = base + (i mod 8) in
        ignore (Map.insert map k);
        ignore (Map.remove map k)
      done
    in
    ( reader :: List.init writers (fun i -> writer (i + 1)),
      fun () ->
        captured := Some (Map.metrics map);
        true )
  in
  let handoff = 24 in
  let faults =
    (match fault with
    | `Stall -> Explore.stall_at ~victim:0 ~at:handoff ()
    | `Kill -> Explore.kill_at ~victim:0 ~at:handoff ())
    :: List.init writers (fun i ->
           Explore.stall_at ~victim:(i + 1) ~at:1 ~resume_at:handoff ())
  in
  (match
     Explore.explore
       ~mode:(Explore.Random_walk { walks = 1 })
       ~seed:3 ~faults ~max_steps:max_int program
   with
  | Explore.Violation { message; _ } ->
      invalid_arg ("Verify.robustness_probe: unexpected violation: " ^ message)
  | Explore.Exhausted _ | Explore.Limit_reached _ -> ());
  match !captured with
  | None -> invalid_arg "Verify.robustness_probe: post-condition never ran"
  | Some m ->
      {
        r_scheme = name;
        r_robust = S.robust;
        r_peak = m.Smr.Metrics.peak_unreclaimed;
        r_retired = m.Smr.Metrics.retired;
      }

(* Peak-unreclaimed bound a robust scheme must respect in the probe
   above: batches in flight are limited by the batch size times the
   thread count (each thread holds at most a partial batch plus the
   sealed one being dismantled), plus per-thread retire lists for the
   scan-based schemes. Anything past this means a stalled reader is
   blocking reclamation. *)
let robust_bound = (writers + 1) * 3 * 8

(* Every reclaiming scheme under one [fault]. *)
let probe_all ~fault () : robustness list =
  List.filter_map
    (fun (name, (module S : SMR)) ->
      if reclaiming (module S) then
        Some (robustness_probe ~fault ~name (module S))
      else None)
    schemes

(* ------------------------------------------------------------------ *)
(* Wait-freedom probes (Crystalline)                                   *)
(* ------------------------------------------------------------------ *)

module Sched = Smr_runtime.Scheduler

type steps = {
  s_scheme : string;
  s_costs : (int * int) list;
      (** adversary allocation count -> reader cost units per protect *)
  s_bounded : bool;
      (** the reader's per-op cost stays flat as the adversary's
          allocation budget grows — the machine-checked wait-freedom
          signature (an era-loop scheme's cost grows with the budget) *)
}

(* Measure what one of 16 protected reads costs a reader while an
   adversary floods era advances. The scheduler is driven directly (no
   explorer): a deterministic picker hands the adversary 7 decisions for
   every reader decision — the starvation schedule — and the tracer adds
   up the cost units charged to the reader alone. Under this schedule an
   era-validation loop (Hyaline-1S, Crystalline-L) re-reads until the
   adversary's allocation budget is exhausted, so its per-op cost grows
   linearly with [churn]; Crystalline-W's handshake completes each
   parked read as part of the very next era advance, so its cost stays
   flat. *)
let reader_cost (module S : SMR) ~churn =
  let ops = 16 in
  let sched = Sched.create ~seed:5 () in
  let t =
    S.create { (tiny_cfg ~threads:2) with batch_size = 4; era_freq = 1 }
  in
  let shared = S.R.Atomic.make None in
  (* Only the protected reads are metered: the final [leave] traverses
     the slot's accumulated batch list, whose length grows with the
     adversary's churn for every Hyaline-family scheme — reclamation
     work, not read-path work, and not what wait-freedom bounds. *)
  let measuring = ref false in
  let reader () =
    let g = S.enter t in
    measuring := true;
    for _ = 1 to ops do
      match
        S.protect t g ~idx:0
          ~read:(fun () -> S.R.Atomic.get shared)
          ~target:Smr.Smr_intf.of_option
      with
      | Some n -> ignore (S.data n)
      | None -> ()
    done;
    measuring := false;
    S.leave t g
  in
  let adversary () =
    let g = S.enter t in
    for i = 1 to churn do
      let n = S.alloc t i in
      (match S.R.Atomic.exchange shared (Some n) with
      | Some old -> S.retire t g old
      | None -> ())
    done;
    S.leave t g
  in
  let reader_tid = ref (-1) and adv_tid = ref (-1) in
  let decisions = ref 0 in
  Sched.set_picker sched
    (Some
       (fun width ->
         incr decisions;
         let want =
           if !decisions mod 8 = 0 then !reader_tid else !adv_tid
         in
         let slot = ref 0 in
         for i = 0 to width - 1 do
           if Sched.runnable_tid sched i = want then slot := i
         done;
         !slot));
  let cost = ref 0 in
  Sched.set_tracer sched
    (Some
       (function
         | Sched.Ev_step { tid; cost = c; _ }
           when tid = !reader_tid && !measuring ->
             cost := !cost + c
         | _ -> ()));
  reader_tid := Sched.spawn sched reader;
  adv_tid := Sched.spawn sched adversary;
  (match Sched.run sched with
  | Sched.All_finished -> ()
  | Sched.Budget_exhausted | Sched.Only_stalled ->
      invalid_arg "Verify.reader_cost: probe did not finish");
  !cost / ops

(* The sweep starts high enough that every one of the reader's protects
   falls inside the contention phase at every point — otherwise the mean
   is diluted by uncontended tail reads and every scheme looks flat. *)
let steps_probe name : steps =
  let (module S : SMR) =
    match scheme_of_name name with
    | Some s -> s
    | None -> invalid_arg ("Verify.steps_probe: unknown scheme " ^ name)
  in
  let costs =
    List.map
      (fun churn -> (churn, reader_cost (module S) ~churn))
      [ 512; 2048; 8192 ]
  in
  let lo = List.fold_left (fun acc (_, c) -> min acc c) max_int costs in
  let hi = List.fold_left (fun acc (_, c) -> max acc c) 0 costs in
  (* Flat = the largest sweep point costs at most 4x the smallest; the
     era-loop schemes blow through this by an order of magnitude. *)
  { s_scheme = name; s_costs = costs; s_bounded = hi <= 4 * lo }
