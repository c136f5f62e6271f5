(** Hyaline-specific unit and property tests: Adjs modular arithmetic, the
    slot directory, trim, the LL/SC head model, flush padding, ack balance
    and adaptive resizing. *)

module Sched = Smr_runtime.Scheduler
module Sim = Smr_runtime.Sim_runtime
module Batch = Hyaline_core.Batch
module Cell = Smr_runtime.Sim_cell
open Test_support

(* ---- Adjs arithmetic (§3.2) -------------------------------------------- *)

let qcheck_adjs_cancels =
  QCheck.Test.make ~count:200 ~name:"k * Adjs wraps to 0 (mod 2^63)"
    QCheck.(int_range 0 20)
    (fun log_k ->
      let k = 1 lsl log_k in
      k * Batch.adjs k = 0)

let qcheck_adjs_accumulation =
  (* Summing Adjs from a random subset of slots reaches 0 iff the subset is
     all k slots — the "adjustment cannot complete early" property. *)
  QCheck.Test.make ~count:500 ~name:"partial Adjs sums never cancel"
    QCheck.(pair (int_range 1 14) (int_range 0 (1 lsl 14)))
    (fun (log_k, picks) ->
      let k = 1 lsl log_k in
      let adjs = Batch.adjs k in
      let m = picks mod (k + 1) in
      let sum = m * adjs in
      if m = 0 || m = k then sum = 0 else sum <> 0)

let test_adjs_k1 () =
  Alcotest.(check int) "k=1 degenerates to 0" 0 (Batch.adjs 1)

let test_adjs_rejects_non_pow2 () =
  Alcotest.check_raises "non-power-of-two rejected"
    (Invalid_argument "Batch.adjs: k not a power of 2") (fun () ->
      ignore (Batch.adjs 12))

let qcheck_log2 =
  QCheck.Test.make ~count:500 ~name:"log2 matches float log2"
    QCheck.(int_range 1 (1 lsl 40))
    (fun n -> Batch.log2 n = int_of_float (Float.log2 (float_of_int n)))

(* ---- Slot directory (§4.3, Fig. 6) ------------------------------------- *)

module Dir = Hyaline_core.Slot_directory.Make (Sim)

let test_directory_identity () =
  (* Every slot must come back as the record created for its index. *)
  let dir = Dir.create ~kmin:4 ~adaptive:true ~make_slot:(fun i -> ref i) in
  for _ = 1 to 5 do
    Dir.grow dir ~from:(Dir.k dir)
  done;
  Alcotest.(check int) "k doubled five times" 128 (Dir.k dir);
  for i = 0 to 127 do
    Alcotest.(check int) (Printf.sprintf "slot %d" i) i !(Dir.get dir i)
  done

let test_directory_concurrent_grow () =
  (* Racing growers: exactly one block wins per level; k stays a power of
     two and every slot remains addressable. *)
  let dir = Dir.create ~kmin:2 ~adaptive:true ~make_slot:(fun i -> ref i) in
  ignore
    (run_threads ~threads:6 (fun _ ->
         for _ = 1 to 4 do
           Dir.grow dir ~from:(Dir.k dir)
         done));
  let k = Dir.k dir in
  Alcotest.(check bool) "k grew" true (k > 2);
  Alcotest.(check bool) "k is a power of two" true (Batch.is_power_of_two k);
  for i = 0 to k - 1 do
    Alcotest.(check int) (Printf.sprintf "slot %d" i) i !(Dir.get dir i)
  done

let test_directory_static () =
  (* A non-adaptive directory is Fig. 3's static Heads[k]: k is kmin,
     every slot comes back as its own record, and neither read is
     charged. *)
  let dir = Dir.create ~kmin:8 ~adaptive:false ~make_slot:(fun i -> ref i) in
  let k, ids, d =
    run_solo (fun () ->
        let before = Cell.snapshot_counts () in
        let k = Dir.k dir in
        let ids = List.init k (fun i -> !(Dir.get dir i)) in
        (k, ids, Cell.diff_counts ~now:(Cell.snapshot_counts ()) ~past:before))
  in
  Alcotest.(check int) "k is kmin" 8 k;
  Alcotest.(check (list int)) "every slot's record" (List.init 8 Fun.id) ids;
  Alcotest.(check (list int)) "no charged ops" [ 0; 0; 0; 0; 0; 0; 0; 0 ]
    (classes d)

(* ---- Trim (§3.3) -------------------------------------------------------- *)

module Stack_h = Smr_ds.Treiber_stack.Make (Hyaline)

let test_trim_releases_retired () =
  (* A thread holding one long bracket with trims must not block
     reclamation the way a plain long bracket does. *)
  let with_refresh use_refresh =
    let cfg = test_cfg ~threads:2 in
    let stack = Stack_h.create cfg in
    run_solo (fun () ->
        let g = ref (Stack_h.enter stack) in
        for i = 1 to 500 do
          Stack_h.push_with stack !g i;
          ignore (Stack_h.pop_with stack !g);
          if use_refresh then g := Hyaline.refresh stack.Stack_h.smr !g
        done;
        Stack_h.leave stack !g);
    Smr.Smr_intf.unreclaimed (Stack_h.stats stack)
  in
  (* Both end clean after leave; the interesting part is that trim ran at
     all and the books still balance (no Double_free / Use_after_free). *)
  Alcotest.(check bool) "trim path completes and reclaims" true
    (with_refresh true <= with_refresh false + 64)

let test_trim_concurrent () =
  for seed = 1 to 8 do
    let cfg = test_cfg ~threads:6 in
    let stack = Stack_h.create cfg in
    let sched = Sched.create ~seed () in
    for tid = 0 to 5 do
      ignore
        (Sched.spawn sched (fun () ->
             let rng = Random.State.make [| seed; tid |] in
             let g = ref (Stack_h.enter stack) in
             for i = 1 to 150 do
               if Random.State.bool rng then Stack_h.push_with stack !g i
               else ignore (Stack_h.pop_with stack !g);
               g := Hyaline.refresh stack.Stack_h.smr !g
             done;
             Stack_h.leave stack !g))
    done;
    match Sched.run sched with
    | Sched.All_finished -> ()
    | _ -> Alcotest.fail "trim workload did not finish"
  done

(* ---- Ack balance (§4.2; DESIGN.md §2a finding 2) ------------------------ *)

module Engine_s =
  Hyaline_core.Engine_multi.Make (Sim) (Hyaline_core.Head_dwcas.Make (Sim))
    (struct
      let scheme_name = "Hyaline-S/test"
      let robust = true
    end)

module Stack_s = Smr_ds.Treiber_stack.Make (Engine_s)

let test_ack_zero_at_quiescence () =
  (* With no stalled threads, every slot's Ack must return to exactly 0 —
     the invariant that makes stalled-slot detection sound. *)
  for seed = 1 to 8 do
    let cfg = { (test_cfg ~threads:8) with slots = 4 } in
    let stack = Stack_s.create cfg in
    let sched = Sched.create ~seed () in
    for tid = 0 to 7 do
      ignore
        (Sched.spawn sched (fun () ->
             let rng = Random.State.make [| seed; tid |] in
             for i = 1 to 200 do
               if Random.State.bool rng then Stack_s.push stack i
               else ignore (Stack_s.pop stack)
             done))
    done;
    (match Sched.run sched with
    | Sched.All_finished -> ()
    | _ -> Alcotest.fail "ack workload did not finish");
    let smr = stack.Stack_s.smr in
    for i = 0 to Engine_s.current_slots smr - 1 do
      let slot = Engine_s.Dir.get smr.Engine_s.dir i in
      Alcotest.(check int)
        (Printf.sprintf "seed %d slot %d ack" seed i)
        0
        (Sim.Atomic.get slot.Engine_s.ack)
    done
  done

let test_stalled_residue_isolated () =
  (* A stalled thread leaves a positive residue in its own slot only. *)
  let cfg = { (test_cfg ~threads:5) with slots = 4; ack_threshold = 1000 } in
  let stack = Stack_s.create cfg in
  let sched = Sched.create ~seed:3 () in
  let stalled_slot = ref (-1) in
  ignore
    (Sched.spawn sched (fun () ->
         let g = Stack_s.enter stack in
         stalled_slot := g.Engine_s.slot_idx;
         Sched.stall ()));
  for _ = 1 to 4 do
    ignore
      (Sched.spawn sched (fun () ->
           for i = 1 to 300 do
             Stack_s.push stack i;
             ignore (Stack_s.pop stack)
           done))
  done;
  (match Sched.run sched with
  | Sched.Only_stalled -> ()
  | _ -> Alcotest.fail "expected Only_stalled");
  let smr = stack.Stack_s.smr in
  for i = 0 to Engine_s.current_slots smr - 1 do
    let ack = Sim.Atomic.get (Engine_s.Dir.get smr.Engine_s.dir i).Engine_s.ack in
    if i = !stalled_slot then
      Alcotest.(check bool)
        (Printf.sprintf "stalled slot %d has positive residue" i)
        true (ack > 0)
    else
      Alcotest.(check int) (Printf.sprintf "clean slot %d" i) 0 ack
  done

(* ---- Adaptive resizing end to end (§4.3) -------------------------------- *)

let test_adaptive_growth () =
  let cfg =
    { (test_cfg ~threads:10) with
      slots = 2;
      ack_threshold = 4;
      adaptive = true;
      era_freq = 4 }
  in
  let module St = Smr_ds.Treiber_stack.Make (Hyaline_s) in
  let stack = St.create cfg in
  let sched = Sched.create ~seed:5 () in
  (* Stall enough threads to poison both initial slots. *)
  for _ = 0 to 3 do
    ignore
      (Sched.spawn sched (fun () ->
           let g = St.enter stack in
           ignore g;
           Sched.stall ()))
  done;
  for tid = 4 to 9 do
    ignore
      (Sched.spawn sched (fun () ->
           for i = 1 to 400 do
             St.push stack (tid + i);
             ignore (St.pop stack)
           done))
  done;
  (match Sched.run sched with
  | Sched.Only_stalled -> ()
  | _ -> Alcotest.fail "expected Only_stalled");
  Alcotest.(check bool) "slot count grew beyond the initial 2" true
    (Hyaline_s.current_slots stack.St.smr > 2)

(* ---- LL/SC head model (§4.4, Fig. 7) ------------------------------------ *)

module Llsc = Hyaline_core.Llsc_head.Make (Sim)

let test_llsc_sequential_protocol () =
  run_solo (fun () ->
      let head = Llsc.make () in
      let v0 = Llsc.load head in
      Alcotest.(check int) "initial href" 0 v0.Hyaline_core.Head_intf.href;
      let pre = Llsc.enter_faa head in
      Alcotest.(check int) "faa returns old" 0
        pre.Hyaline_core.Head_intf.href;
      let v1 = Llsc.load head in
      Alcotest.(check int) "href incremented" 1
        v1.Hyaline_core.Head_intf.href;
      (* Stale view must fail to update. *)
      (match Llsc.try_leave head ~seen:v0 with
      | `Fail -> ()
      | `Left | `Detached -> Alcotest.fail "stale leave must fail");
      match Llsc.try_leave head ~seen:v1 with
      | `Left -> ()
      | `Detached -> Alcotest.fail "empty list: nothing detached"
      | `Fail -> Alcotest.fail "fresh leave must succeed")

let test_llsc_stress_vs_dwcas () =
  (* The same stack workload over both head implementations must satisfy
     the same quiescence invariant. *)
  let run_with (module S : SMR) =
    let module St = Smr_ds.Treiber_stack.Make (S) in
    let cfg = test_cfg ~threads:8 in
    let stack = St.create cfg in
    for seed = 1 to 6 do
      let sched = Sched.create ~seed () in
      for tid = 0 to 7 do
        ignore
          (Sched.spawn sched (fun () ->
               let rng = Random.State.make [| seed; tid |] in
               for i = 1 to 100 do
                 if Random.State.bool rng then St.push stack i
                 else ignore (St.pop stack)
               done))
      done;
      match Sched.run sched with
      | Sched.All_finished -> ()
      | _ -> Alcotest.fail "llsc stress did not finish"
    done;
    run_solo (fun () -> while St.pop stack <> None do () done);
    St.flush stack;
    Smr.Smr_intf.unreclaimed (St.stats stack)
  in
  Alcotest.(check int) "llsc head leaks nothing" 0
    (run_with (module Hyaline_llsc));
  Alcotest.(check int) "llsc robust head leaks nothing" 0
    (run_with (module Hyaline_s_llsc))

(* ---- Flush padding ------------------------------------------------------ *)

let test_flush_pads_partial_batches () =
  let cfg = { (test_cfg ~threads:2) with batch_size = 32 } in
  let module St = Smr_ds.Treiber_stack.Make (Hyaline) in
  let stack = St.create cfg in
  run_solo (fun () ->
      for i = 1 to 5 do
        St.push stack i
      done;
      for _ = 1 to 5 do
        ignore (St.pop stack)
      done);
  (* Five nodes sit in a partial batch; the retired tally is deferred to
     batch sealing (EXPERIMENTS.md metric note), so nothing counts yet. *)
  let before = St.stats stack in
  Alcotest.(check int) "pending nodes not yet tallied" 0 before.retired;
  St.flush stack;
  let after = St.stats stack in
  Alcotest.(check bool) "flush sealed and tallied the padded batch" true
    (after.retired > 5);
  check_no_leak "flush" after

(* ---- Retire-path allocation --------------------------------------------- *)

(* The allocation floor under the retire path (DESIGN.md §15): one fiber
   doing enter/alloc/retire/leave pairs through the real engine (slot-list
   insertion, batch sealing, FIFO frees) allocates at most 28.73 OCaml
   minor words per pair — 1.1x the 26.12 measured once both engines
   shared one retire front-end. *)
let test_retire_minor_words () =
  let ops = 20_000 in
  let t = Hyaline.create Smr.Smr_intf.default_config in
  ignore (Hyaline.register ~tid:0 t);
  let sched = Sched.create ~seed:6 () in
  ignore
    (Sched.spawn sched (fun () ->
         for i = 1 to ops do
           let g = Hyaline.enter t in
           Hyaline.retire t g (Hyaline.alloc t i);
           Hyaline.leave t g
         done;
         Hyaline.flush t));
  let before = Gc.minor_words () in
  (match Sched.run sched with
  | Sched.All_finished -> ()
  | _ -> Alcotest.fail "retire loop did not finish");
  let per_op = (Gc.minor_words () -. before) /. float_of_int ops in
  if per_op > 28.73 then
    Alcotest.failf "retire path allocates %.2f minor words/op (> 28.73)"
      per_op

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_adjs_cancels;
    QCheck_alcotest.to_alcotest qcheck_adjs_accumulation;
    QCheck_alcotest.to_alcotest qcheck_log2;
    Alcotest.test_case "adjs-k1" `Quick test_adjs_k1;
    Alcotest.test_case "adjs-non-pow2" `Quick test_adjs_rejects_non_pow2;
    Alcotest.test_case "directory-identity" `Quick test_directory_identity;
    Alcotest.test_case "directory-concurrent-grow" `Quick
      test_directory_concurrent_grow;
    Alcotest.test_case "directory-static" `Quick test_directory_static;
    Alcotest.test_case "trim-releases" `Quick test_trim_releases_retired;
    Alcotest.test_case "trim-concurrent" `Quick test_trim_concurrent;
    Alcotest.test_case "ack-zero-at-quiescence" `Quick
      test_ack_zero_at_quiescence;
    Alcotest.test_case "stalled-residue-isolated" `Quick
      test_stalled_residue_isolated;
    Alcotest.test_case "adaptive-growth" `Quick test_adaptive_growth;
    Alcotest.test_case "llsc-sequential" `Quick test_llsc_sequential_protocol;
    Alcotest.test_case "llsc-stress" `Quick test_llsc_stress_vs_dwcas;
    Alcotest.test_case "flush-pads" `Quick test_flush_pads_partial_batches;
    Alcotest.test_case "retire-minor-words" `Quick test_retire_minor_words;
  ]
