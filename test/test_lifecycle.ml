(** The thread-lifecycle layer end to end: slot-registry recycling and
    generation stamps, dynamic in-fiber {!Scheduler.spawn}, the
    [spawn_at] churn driver with its [Ev_join]/[Ev_leave] events, slot
    reaping after a fault-injected kill (orphan handoff and adoption),
    and the churn workload model in the harness. *)

module Sched = Smr_runtime.Scheduler
module Workload = Smr_harness.Workload
module Plan = Smr_harness.Plan
module Executor = Smr_harness.Executor
module Registry = Smr_harness.Registry
open Test_support

let series name (m : Smr.Metrics.snapshot) =
  Option.value ~default:0 (Smr.Metrics.series_value m name)

(* -- slot registry -------------------------------------------------------- *)

let test_registry_unit () =
  let module SR = Smr.Slot_registry in
  let r = SR.create ~capacity:2 in
  let a = SR.register r ~tid:10 in
  let b = SR.register r ~tid:11 in
  Alcotest.(check (list int)) "dense ids" [ 0; 1 ] [ a.SR.id; b.SR.id ];
  Alcotest.(check int) "live count" 2 (SR.live_count r);
  (* Full and double registration are loud errors, not silent corruption. *)
  (try
     ignore (SR.register r ~tid:12);
     Alcotest.fail "capacity exhaustion accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (SR.register r ~tid:10);
     Alcotest.fail "double registration accepted"
   with Invalid_argument _ -> ());
  SR.release r a;
  (* A released handle is stale: the previous occupant cannot deregister
     the next one (generation stamp). *)
  (try
     SR.release r a;
     Alcotest.fail "stale release accepted"
   with Invalid_argument _ -> ());
  let c = SR.register r ~tid:12 in
  Alcotest.(check int) "slot recycled" a.SR.id c.SR.id;
  Alcotest.(check int) "generation bumped" (a.SR.gen + 1) c.SR.gen;
  let live = ref [] in
  SR.iter_live r (fun id -> live := id :: !live);
  Alcotest.(check (list int)) "iter_live ascending" [ 0; 1 ] (List.rev !live);
  let sr = SR.series r in
  let v k = Option.value ~default:(-1) (List.assoc_opt k sr) in
  Alcotest.(check int) "registered counter" 3 (v "registered");
  Alcotest.(check int) "deregistered counter" 1 (v "deregistered");
  Alcotest.(check int) "reuse counter" 1 (v "slot_reuses");
  Alcotest.(check int) "peak live" 2 (v "peak_live_slots")

(* Scans walk the live slots, not the capacity: an Epoch flush with 2
   registered slots charges the same simulated cost whether the scheme
   was sized for 2 threads or for 144. *)
let test_scan_cost_capacity_independent () =
  let flush_cost ~capacity =
    let t =
      Ebr.create { Smr.Smr_intf.default_config with max_threads = capacity }
    in
    for tid = 0 to 1 do
      ignore (Ebr.register ~tid t)
    done;
    run_threads ~seed:4 ~threads:1 (fun _ ->
        let g = Ebr.enter t in
        Ebr.retire t g (Ebr.alloc t 0);
        Ebr.leave t g;
        Ebr.flush t)
  in
  Alcotest.(check int) "flush cost at capacity 144 = at capacity 2"
    (flush_cost ~capacity:2) (flush_cost ~capacity:144)

(* -- dynamic spawn from a running fiber ----------------------------------- *)

(* The documented dynamic-spawn path: a running thread spawns a child
   mid-run. The child must run to completion and be traced with a normal
   Ev_spawn (it is a plain thread, not a churn session). *)
let test_dynamic_spawn () =
  let sched = Sched.create ~seed:3 () in
  let events = ref [] in
  Sched.set_tracer sched (Some (fun e -> events := e :: !events));
  let child_ran = ref false in
  let child_tid = ref (-1) in
  ignore
    (Sched.spawn sched (fun () ->
         Sched.step 1;
         child_tid :=
           Sched.spawn sched (fun () ->
               Sched.step 1;
               child_ran := true);
         Sched.step 1));
  (match Sched.run sched with
  | Sched.All_finished -> ()
  | _ -> Alcotest.fail "expected All_finished");
  Alcotest.(check bool) "child ran" true !child_ran;
  let spawned tid =
    List.exists
      (function Sched.Ev_spawn { tid = t; _ } -> t = tid | _ -> false)
      !events
  in
  let finished tid =
    List.exists
      (function Sched.Ev_finish { tid = t; _ } -> t = tid | _ -> false)
      !events
  in
  Alcotest.(check bool) "child traced as Ev_spawn" true (spawned !child_tid);
  Alcotest.(check bool) "child traced as Ev_finish" true (finished !child_tid);
  let joins =
    List.exists (function Sched.Ev_join _ -> true | _ -> false) !events
  in
  Alcotest.(check bool) "no churn events without spawn_at" false joins

(* -- spawn_at churn driver ------------------------------------------------ *)

let test_spawn_at_events () =
  let sched = Sched.create ~seed:5 () in
  let events = ref [] in
  Sched.set_tracer sched (Some (fun e -> events := e :: !events));
  let ran_at = ref (-1) in
  Sched.spawn_at sched ~at:50 (fun () ->
      ran_at := Sched.now sched;
      Sched.step 1);
  Alcotest.(check int) "queued" 1 (Sched.pending_spawns sched);
  (match Sched.run sched with
  | Sched.All_finished -> ()
  | _ -> Alcotest.fail "expected All_finished");
  (* Nothing else was runnable: the clock fast-forwards to the join time
     instead of reporting the run finished or stalled. *)
  Alcotest.(check int) "activated exactly at its join time" 50 !ran_at;
  Alcotest.(check int) "queue drained" 0 (Sched.pending_spawns sched);
  let count p = List.length (List.filter p !events) in
  Alcotest.(check int) "one Ev_join" 1
    (count (function Sched.Ev_join _ -> true | _ -> false));
  Alcotest.(check int) "one Ev_leave" 1
    (count (function Sched.Ev_leave _ -> true | _ -> false));
  Alcotest.(check int) "churn threads do not emit Ev_spawn/Ev_finish" 0
    (count (function
      | Sched.Ev_spawn _ | Sched.Ev_finish _ -> true
      | _ -> false))

(* A churn fiber can chain the next session itself — the pattern the
   workload churn lanes use. *)
let test_spawn_at_chaining () =
  let sched = Sched.create ~seed:6 () in
  let joined = ref 0 in
  let rec session remaining () =
    incr joined;
    Sched.step 1;
    if remaining > 1 then
      Sched.spawn_at sched ~at:(Sched.now sched + 3) (session (remaining - 1))
  in
  Sched.spawn_at sched ~at:1 (session 5);
  (match Sched.run sched with
  | Sched.All_finished -> ()
  | _ -> Alcotest.fail "expected All_finished");
  Alcotest.(check int) "all chained sessions ran" 5 !joined

(* -- slot reaping after a kill -------------------------------------------- *)

(* A registered thread is killed mid-bracket with a full limbo list while
   a stalled reader pins the epoch — the DEBRA departing-thread problem.
   Reaping its slot (external deregister) must clear its reservation,
   hand the pinned limbo to the orphan list, and release the slot for
   recycling; once the reader leaves, the next scan adopts and frees
   everything. *)
let test_kill_reaps_slot () =
  let cfg =
    { Smr.Smr_intf.default_config with max_threads = 4; batch_size = 64 }
  in
  let t = Ebr.create cfg in
  let sched = Sched.create ~seed:9 () in
  let victim_slot = ref None in
  let ready = ref false in
  let victim =
    Sched.spawn sched (fun () ->
        let s = Ebr.register t in
        victim_slot := Some s;
        let g = Ebr.enter t in
        for i = 1 to 8 do
          Ebr.retire t g (Ebr.alloc t i)
        done;
        ready := true;
        while true do
          Sched.step 1
        done)
  in
  let reader =
    Sched.spawn sched (fun () ->
        let g = Ebr.enter t in
        Sched.stall ();
        Ebr.leave t g)
  in
  ignore
    (Sched.spawn sched (fun () ->
         while not !ready do
           Sched.step 1
         done;
         Sched.kill sched victim));
  (match Sched.run sched with
  | Sched.Only_stalled -> ()
  | _ -> Alcotest.fail "expected Only_stalled (reader parked)");
  let s = Option.get !victim_slot in
  (* The reaper runs outside the simulation, like the harness teardown. *)
  Ebr.deregister t s;
  let m = Ebr.metrics t in
  Alcotest.(check int) "victim's limbo handed off, still pinned" 8
    (series "orphaned" m);
  Alcotest.(check int) "nothing adopted while the reader pins" 0
    (series "adopted" m);
  (* The slot itself is immediately recyclable — and generation-stamped,
     so the victim's stale handle is dead. *)
  let s2 = Ebr.register ~tid:99 t in
  Alcotest.(check int) "slot recycled to the next joiner" s.Smr.Smr_intf.id
    s2.Smr.Smr_intf.id;
  Alcotest.(check int) "generation bumped" (s.Smr.Smr_intf.gen + 1)
    s2.Smr.Smr_intf.gen;
  (try
     Ebr.deregister t s;
     Alcotest.fail "stale slot handle accepted"
   with Invalid_argument _ -> ());
  (* Release the reader; adoption happens on the next scan. *)
  Sched.unstall sched reader;
  (match Sched.run sched with
  | Sched.All_finished -> ()
  | _ -> Alcotest.fail "expected All_finished after unstall");
  Ebr.flush t;
  let m = Ebr.metrics t in
  Alcotest.(check int) "orphans adopted" 8 (series "adopted" m);
  Alcotest.(check int) "no permanent growth" 0
    (Smr.Smr_intf.unreclaimed (Ebr.stats t))

(* -- harness churn model -------------------------------------------------- *)

let run_churn scheme =
  let ch = { Workload.sessions = 60; session_ops = 2; lanes = 4 } in
  let r =
    Executor.run_cell_exn
      (Plan.cell ~churn:ch ~budget:200_000 ~seed:5 ~scheme
         ~structure:Registry.Hashmap ~threads:2 ())
  in
  match r.Workload.churn with
  | None -> Alcotest.fail "churn spec produced no churn stats"
  | Some c -> (r, c)

let test_workload_churn () =
  List.iter
    (fun scheme ->
      let _, c = run_churn scheme in
      Alcotest.(check int)
        (scheme ^ ": every session joined")
        60 c.Workload.c_joins;
      Alcotest.(check int)
        (scheme ^ ": every session left")
        60 c.Workload.c_leaves;
      (* 4 lanes: all but the first session of each lane recycles. *)
      Alcotest.(check int)
        (scheme ^ ": slots recycled")
        (60 - 4) c.Workload.c_reuses;
      Alcotest.(check bool)
        (scheme ^ ": sessions performed ops")
        true
        (c.Workload.c_session_ops = 120);
      Alcotest.(check int)
        (scheme ^ ": no orphaned retiree leaked at quiescence")
        0 c.Workload.c_orphan_backlog)
    [ "Epoch"; "HP"; "Hyaline-1"; "Hyaline" ]

let test_churn_free_spec_unchanged () =
  (* A churn-free cell must not even mention churn in its identity key —
     pre-refactor cache entries stay valid byte for byte. *)
  let c =
    Plan.cell ~seed:5 ~scheme:"Epoch" ~structure:Registry.Hashmap ~threads:2 ()
  in
  let key = Plan.cell_key c in
  let contains sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    "no churn component in a churn-free cell key" false
    (contains "churn" key);
  let r = Executor.run_cell_exn c in
  Alcotest.(check bool) "no churn stats" true (r.Workload.churn = None)

let suite =
  [
    Alcotest.test_case "registry-unit" `Quick test_registry_unit;
    Alcotest.test_case "scan-cost-capacity-independent" `Quick
      test_scan_cost_capacity_independent;
    Alcotest.test_case "dynamic-spawn" `Quick test_dynamic_spawn;
    Alcotest.test_case "spawn-at-events" `Quick test_spawn_at_events;
    Alcotest.test_case "spawn-at-chaining" `Quick test_spawn_at_chaining;
    Alcotest.test_case "kill-reaps-slot" `Quick test_kill_reaps_slot;
    Alcotest.test_case "workload-churn" `Quick test_workload_churn;
    Alcotest.test_case "churn-free-spec-unchanged" `Quick
      test_churn_free_spec_unchanged;
  ]
