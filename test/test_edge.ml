(** Edge-case coverage: the single-list k=1 configuration of §3.1, minimal
    batch sizes, empty-structure operations, guard-free allocation, and
    configuration validation. *)

module Sched = Smr_runtime.Scheduler
open Test_support

(* k = 1 degenerates to the simplified single-list Hyaline of §3.1 with
   Adjs = 0 — every code path (empty-slot accounting, predecessor
   adjustment, detach) must still balance. *)
let test_single_slot_hyaline () =
  let module St = Smr_ds.Treiber_stack.Make (Hyaline) in
  let cfg = { (test_cfg ~threads:6) with slots = 1; batch_size = 4 } in
  let stack = St.create cfg in
  for seed = 1 to 8 do
    let sched = Sched.create ~seed () in
    for tid = 0 to 5 do
      ignore
        (Sched.spawn sched (fun () ->
             let rng = Random.State.make [| seed; tid |] in
             for i = 1 to 150 do
               if Random.State.bool rng then St.push stack i
               else ignore (St.pop stack)
             done))
    done;
    match Sched.run sched with
    | Sched.All_finished -> ()
    | _ -> Alcotest.fail "k=1 workload did not finish"
  done;
  run_solo (fun () -> while St.pop stack <> None do () done);
  St.flush stack;
  check_no_leak "k=1" (St.stats stack)

(* Batch exactly k+1: the minimum legal size — one NRef node plus one
   insertable node per slot. *)
let test_minimal_batch () =
  let module St = Smr_ds.Treiber_stack.Make (Hyaline) in
  let cfg = { (test_cfg ~threads:4) with slots = 4; batch_size = 1 } in
  let stack = St.create cfg in
  ignore
    (run_threads ~threads:4 (fun tid ->
         for i = 1 to 200 do
           St.push stack ((tid * 1000) + i);
           ignore (St.pop stack)
         done));
  run_solo (fun () -> while St.pop stack <> None do () done);
  St.flush stack;
  check_no_leak "batch=k+1" (St.stats stack)

let test_empty_structure_ops () =
  List.iter
    (fun (_, (module S : SMR)) ->
      let module L = Smr_ds.Harris_michael_list.Make (S) in
      run_solo (fun () ->
          let l = L.create (test_cfg ~threads:1) in
          Alcotest.(check bool) "remove on empty" false (L.remove l 1);
          Alcotest.(check bool) "contains on empty" false (L.contains l 1);
          Alcotest.(check bool) "insert twice" true (L.insert l 1);
          Alcotest.(check bool) "insert twice" false (L.insert l 1)))
    all_schemes

(* Nested/overlapping guards on one thread are legal for every scheme that
   keeps per-operation state in the guard itself; Hyaline explicitly
   supports operations from any context (§2.4). *)
let test_reentrant_guards () =
  run_solo (fun () ->
      let module St = Smr_ds.Treiber_stack.Make (Hyaline) in
      let stack = St.create (test_cfg ~threads:1) in
      let g1 = St.enter stack in
      St.push_with stack g1 1;
      let g2 = St.enter stack in
      St.push_with stack g2 2;
      ignore (St.pop_with stack g2);
      St.leave stack g2;
      ignore (St.pop_with stack g1);
      St.leave stack g1)

let test_hashmap_bucket_validation () =
  Alcotest.check_raises "non-power-of-two buckets rejected"
    (Invalid_argument "Michael_hashmap.create: buckets must be a power of two")
    (fun () ->
      let module M = Smr_ds.Michael_hashmap.Make (Hyaline) in
      ignore (M.create ~buckets:100 (test_cfg ~threads:1)))

(* The sorted list must keep keys ordered through concurrent churn. *)
let test_list_stays_sorted () =
  let module L = Smr_ds.Harris_michael_list.Make (Hyaline) in
  let cfg = test_cfg ~threads:6 in
  let l = L.create cfg in
  ignore
    (run_threads ~threads:6 (fun tid ->
         let rng = Random.State.make [| tid; 5 |] in
         for _ = 1 to 200 do
           let key = Random.State.int rng 64 in
           if Random.State.bool rng then ignore (L.insert l key)
           else ignore (L.remove l key)
         done));
  (* Walk the list directly and check strict ordering. *)
  run_solo (fun () ->
      let module A = L.A in
      let rec walk prev link =
        let n = link.L.tgt in
        if not (Smr.Smr_intf.is_nil n) then begin
          let pl = L.S.data n in
          Alcotest.(check bool) "strictly sorted" true (pl.L.key > prev);
          walk pl.L.key (A.get pl.L.next)
        end
      in
      walk min_int (A.get l.L.head))

let suite =
  [
    Alcotest.test_case "single-slot-hyaline" `Quick test_single_slot_hyaline;
    Alcotest.test_case "minimal-batch" `Quick test_minimal_batch;
    Alcotest.test_case "empty-structure-ops" `Quick test_empty_structure_ops;
    Alcotest.test_case "reentrant-guards" `Quick test_reentrant_guards;
    Alcotest.test_case "hashmap-bucket-validation" `Quick
      test_hashmap_bucket_validation;
    Alcotest.test_case "list-stays-sorted" `Quick test_list_stays_sorted;
  ]
