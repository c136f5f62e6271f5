(** Conformance verification: machine-check every registered SMR scheme
    against every data structure under the three {!Smr_runtime.Explore}
    modes (sleep-set DFS, weighted random walks, PCT), plus seeded
    stall-injection probes that test the paper's robustness claims
    against each scheme's own [robust] flag.

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

type structure = Registry.structure

let structures = Registry.structures
let structure_name = Registry.structure_name
let structure_of_name = Registry.structure_of_name
let scheme_of_name n = List.assoc_opt n schemes
let supported = Registry.supported

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

(* Shape of one conformance program, recorded in trace files so a
   violation can be reconstructed and replayed from the file alone. *)
type shape = { threads : int; ops : int; keys : int; prog_seed : int }

let default_shape = { threads = 2; ops = 2; keys = 2; prog_seed = 7 }

let reclaiming (module S : SMR) = S.scheme_name <> "Leaky"

(* One uniform program over the set facade: the stack and queue
   participate through the Registry's set-view adapters (insert = push /
   enqueue, remove = pop / dequeue, contains = peek), so their retire
   paths and protected traversals are exercised by the same generator.
   The queue's dummy node is always live, so quiescence leaves
   retired == freed there too, same as the sets. *)
let set_program (module D : CONC_SET) ~reclaiming (shape : shape) :
    Explore.program =
 fun () ->
  let set = D.create ~buckets:2 (tiny_cfg ~threads:shape.threads) in
  let body tid () =
    let rng = Random.State.make [| shape.prog_seed; tid |] in
    for _ = 1 to shape.ops do
      let k = Random.State.int rng shape.keys in
      match Random.State.int rng 3 with
      | 0 -> ignore (D.insert set k)
      | 1 -> ignore (D.remove set k)
      | _ -> ignore (D.contains set k)
    done
  in
  ( List.init shape.threads body,
    fun () ->
      D.flush set;
      (not reclaiming) || Smr.Smr_intf.unreclaimed (D.stats set) = 0 )

(* Churn-mode program: every thread runs two register/deregister
   sessions with its operations in between, so exploration interleaves
   joins, leaves, orphan handoffs and slot recycling with the structure
   operations themselves. The post-condition additionally requires the
   orphan list to be fully adopted: a departing thread's limbo must never
   be stranded. *)
let churn_program (module D : CONC_SET) ~reclaiming (shape : shape) :
    Explore.program =
 fun () ->
  let set = D.create ~buckets:2 (tiny_cfg ~threads:(2 * shape.threads)) in
  let body tid () =
    let rng = Random.State.make [| shape.prog_seed; tid |] in
    for _session = 1 to 2 do
      let s = D.register set in
      for _ = 1 to shape.ops do
        let k = Random.State.int rng shape.keys in
        match Random.State.int rng 3 with
        | 0 -> ignore (D.insert set k)
        | 1 -> ignore (D.remove set k)
        | _ -> ignore (D.contains set k)
      done;
      D.deregister set s
    done
  in
  ( List.init shape.threads body,
    fun () ->
      D.flush set;
      let m = D.metrics set in
      let v n = Option.value ~default:0 (Smr.Metrics.series_value m n) in
      v "orphaned" = v "adopted"
      && ((not reclaiming) || Smr.Smr_intf.unreclaimed (D.stats set) = 0) )

let program_for ?(churn = false) (module S : SMR) structure shape :
    Explore.program =
  let module D = (val Registry.Sim.make_set structure (module S)) in
  let mk = if churn then churn_program else set_program in
  mk (module D) ~reclaiming:(reclaiming (module S)) shape

(* ------------------------------------------------------------------ *)
(* The conformance matrix                                              *)
(* ------------------------------------------------------------------ *)

type verdict =
  | Pass of int  (** executions performed (exhaustive or budgeted) *)
  | Fail of { schedule : int list; shrunk : int list; message : string }
  | Skipped of string  (** structure/scheme pair excluded, with reason *)

type cell = {
  c_scheme : string;
  c_structure : structure;
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

let run_cell ?(seed = 0) ?(budgets = smoke_budgets) ?(shape = default_shape)
    ?(churn = false) (scheme_name, (module S : SMR)) structure mode : cell =
  let verdict =
    if not (supported structure scheme_name) then
      Skipped "hazard-pointer schemes cannot protect a snapshot traversal"
    else begin
      let program = program_for ~churn (module S) structure shape in
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

let run_matrix ?(seed = 0) ?(budgets = smoke_budgets)
    ?(shape = default_shape) ?(axes = Plan.conformance ())
    ?(modes = modes_of_budgets budgets) () : cell list =
  List.concat_map
    (fun (scheme_name, structure) ->
      match scheme_of_name scheme_name with
      | None -> invalid_arg ("Verify.run_matrix: unknown scheme " ^ scheme_name)
      | Some s ->
          List.concat_map
            (fun mode ->
              List.map
                (fun churn ->
                  run_cell ~seed ~budgets ~shape ~churn (scheme_name, s)
                    structure mode)
                [ false; true ])
            modes)
    (Plan.pairs axes)

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
  r_freed : int;
}

(* One reader enters its bracket and is stalled by fault injection
   mid-operation — it holds its reservation forever, exactly the paper's
   Fig. 10a adversary. Writers then churn insert/remove pairs over
   disjoint keys, so every pair retires exactly one node. A robust
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
let robustness_probe ?(seed = 3) ?(churn = 160) ?(writers = 2)
    ?(fault = `Stall) ?name (module S : SMR) : robustness =
  let name = Option.value name ~default:S.scheme_name in
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
      for i = 1 to churn do
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
       ~seed ~faults ~max_steps:max_int program
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
        r_freed = m.Smr.Metrics.freed;
      }

(* Peak-unreclaimed bound a robust scheme must respect in the probe
   above: batches in flight are limited by the batch size times the
   thread count (each thread holds at most a partial batch plus the
   sealed one being dismantled), plus per-thread retire lists for the
   scan-based schemes. Anything past this means a stalled reader is
   blocking reclamation. *)
let robust_bound ~writers = (writers + 1) * 3 * 8

let probe_all ?(seed = 3) ?(churn = 160) ?(writers = 2) () :
    robustness list =
  List.filter_map
    (fun (name, (module S : SMR)) ->
      if name = "Leaky" then None
      else Some (robustness_probe ~seed ~churn ~writers ~name (module S)))
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

(* Measure what one protected read costs a reader while an adversary
   floods era advances. The scheduler is driven directly (no explorer):
   a deterministic picker hands the adversary [ratio] decisions for
   every reader decision — the starvation schedule — and the tracer adds
   up the cost units charged to the reader alone. Under this schedule an
   era-validation loop (Hyaline-1S, Crystalline-L) re-reads until the
   adversary's allocation budget is exhausted, so its per-op cost grows
   linearly with [churn]; Crystalline-W's handshake completes each
   parked read as part of the very next era advance, so its cost stays
   flat. *)
let reader_cost (module S : SMR) ~ops ~churn ~ratio ~seed =
  let sched = Sched.create ~seed () in
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
           if !decisions mod ratio = 0 then !reader_tid else !adv_tid
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
let steps_probe ?(ops = 16) ?(ratio = 8) ?(seed = 5)
    ?(churns = [ 512; 2048; 8192 ]) ?name (module S : SMR) : steps =
  let name = Option.value name ~default:S.scheme_name in
  let costs =
    List.map
      (fun churn -> (churn, reader_cost (module S) ~ops ~churn ~ratio ~seed))
      churns
  in
  let lo = List.fold_left (fun acc (_, c) -> min acc c) max_int costs in
  let hi = List.fold_left (fun acc (_, c) -> max acc c) 0 costs in
  (* Flat = the largest sweep point costs at most 4x the smallest; the
     era-loop schemes blow through this by an order of magnitude. *)
  { s_scheme = name; s_costs = costs; s_bounded = hi <= 4 * lo }

(* The combined machine-checked wait-freedom verdict. Memory axis: under
   a reader stalled OR killed mid-bracket, the Crystalline pair stays
   within the robust bound while Epoch and plain Hyaline grow with the
   churn. Steps axis: Crystalline-W's per-op cost stays flat under the
   starvation schedule while Crystalline-L's (the same engine minus the
   handshake) grows with the adversary's budget. Only Crystalline-W is
   bounded on both axes — Epoch's reads are cheap but its memory is
   unbounded; Crystalline-L's memory is bounded but its reads are not. *)
type waitfree = {
  wf_steps : steps list;
  wf_stall : robustness list;
  wf_kill : robustness list;
  wf_ok : bool;
  wf_bound : int;  (** the robust peak-unreclaimed bound used *)
}

let wf_mem_schemes =
  [ "Epoch"; "Hyaline"; "Hyaline-1S"; "Crystalline-L"; "Crystalline-W" ]

let wf_steps_schemes =
  [ "Epoch"; "Hyaline-1S"; "Crystalline-L"; "Crystalline-W" ]

let waitfree_probe ?(seed = 3) ?(churn = 160) ?(writers = 2) () : waitfree =
  let pick names =
    List.filter (fun (n, _) -> List.mem n names) schemes
  in
  let mem fault =
    List.map
      (fun (name, s) -> robustness_probe ~seed ~churn ~writers ~fault ~name s)
      (pick wf_mem_schemes)
  in
  let wf_stall = mem `Stall and wf_kill = mem `Kill in
  let wf_steps =
    List.map (fun (name, s) -> steps_probe ~name s) (pick wf_steps_schemes)
  in
  let bound = robust_bound ~writers in
  let peak rows name =
    (List.find (fun r -> r.r_scheme = name) rows).r_peak
  in
  let steps_bounded name =
    (List.find (fun s -> s.s_scheme = name) wf_steps).s_bounded
  in
  let mem_bounded name = peak wf_stall name <= bound && peak wf_kill name <= bound in
  let mem_diverges name = peak wf_stall name > 2 * bound && peak wf_kill name > 2 * bound in
  let wf_ok =
    mem_bounded "Crystalline-W" && mem_bounded "Crystalline-L"
    && mem_bounded "Hyaline-1S" && mem_diverges "Epoch"
    && mem_diverges "Hyaline" && steps_bounded "Crystalline-W"
    && steps_bounded "Epoch"
    && (not (steps_bounded "Crystalline-L"))
    && not (steps_bounded "Hyaline-1S")
  in
  { wf_steps; wf_stall; wf_kill; wf_ok; wf_bound = bound }
