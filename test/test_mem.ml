(** The lib/mem slab allocator and the memory-pressure injection path:
    size classes, free-list reuse under generation tags, byte-level
    accounting, the refuse → relieve → retry → OOM budget protocol on a
    real scheme, the executor's OOM failure rows, and — the satellite's
    centrepiece — a deliberately broken scheme that reuses a node still
    protected by a published hazard, caught by the adversarial explorer,
    shrunk, and round-tripped through a replayable trace file. *)

module Arena = Mem.Arena
module Mi = Mem.Mem_intf
module Explore = Smr_runtime.Explore
module Cell = Smr_runtime.Sim_cell
module Trace_file = Smr_harness.Trace_file
module Plan = Smr_harness.Plan
module Executor = Smr_harness.Executor
module Workload = Smr_harness.Workload
open Test_support

let contains msg sub =
  let lower = String.lowercase_ascii msg
  and sub = String.lowercase_ascii sub in
  let n = String.length sub and m = String.length lower in
  let rec go i = i + n <= m && (String.sub lower i n = sub || go (i + 1)) in
  go 0

(* -- size classes --------------------------------------------------------- *)

let test_size_classes () =
  List.iter
    (fun (bytes, cls) ->
      Alcotest.(check int)
        (Printf.sprintf "class of %dB" bytes)
        cls (Arena.size_class bytes))
    [ (1, 16); (16, 16); (17, 32); (40, 64); (64, 64); (65, 128); (1000, 1024) ];
  match Arena.size_class 0 with
  | _ -> Alcotest.fail "size_class 0 accepted"
  | exception Invalid_argument _ -> ()

(* -- arena reuse and byte accounting -------------------------------------- *)

let test_arena_reuse () =
  let a = Arena.create ~config:{ Mi.default_config with slab_slots = 4 } () in
  let slot b =
    match Arena.alloc a ~bytes:b with
    | Ok s -> s
    | Error `Budget -> Alcotest.fail "unexpected budget refusal"
  in
  let s1 = slot 60 in
  let _s2 = slot 60 in
  let _s3 = slot 100 in
  let st = Arena.stats a in
  Alcotest.(check int) "resident" (64 + 64 + 128) st.Mi.bytes_resident;
  Alcotest.(check int) "all fresh" 3 st.Mi.fresh_allocs;
  Alcotest.(check int) "one slab per class" 2 st.Mi.slabs_live;
  Alcotest.(check int) "slab bytes" ((4 * 64) + (4 * 128)) st.Mi.slab_bytes;
  (* Free one 64B slot: accounting drops, the high-water mark sticks, and
     the next same-class allocation reuses the slot under a bumped
     generation. *)
  let g1 = Arena.slot_gen s1 in
  Arena.free a s1;
  let st = Arena.stats a in
  Alcotest.(check int) "resident drops on free" (64 + 128) st.Mi.bytes_resident;
  Alcotest.(check int) "hwm sticks" (64 + 64 + 128) st.Mi.bytes_hwm;
  let s4 = slot 64 in
  Alcotest.(check int) "reissued under a new generation" (g1 + 1)
    (Arena.slot_gen s4);
  let st = Arena.stats a in
  Alcotest.(check int) "reuse hit recorded" 1 st.Mi.reuse_hits;
  Alcotest.(check int) "fresh count unchanged" 3 st.Mi.fresh_allocs;
  (* Exhaust the 4-slot slab: the fifth live 64B slot forces a new slab. *)
  let _s5 = slot 64 and _s6 = slot 64 in
  let _s7 = slot 64 in
  let st = Arena.stats a in
  Alcotest.(check int) "new slab carved when full" 3 st.Mi.slabs_live;
  let f = Mi.fragmentation st in
  Alcotest.(check bool) "fragmentation in [0,1)" true (f >= 0.0 && f < 1.0)

(* -- generation tags distinguish plain UAF from ABA ----------------------- *)

let test_gen_aba_detection () =
  let counters = Smr.Lifecycle.make_counters () in
  let c = Smr.Lifecycle.on_alloc_hot ~bytes:0 ~relieve:ignore ~scheme:"X" counters in
  Smr.Lifecycle.on_retire ~scheme:"X" c counters;
  Smr.Lifecycle.on_free ~scheme:"X" c counters;
  (* Freed but not yet reissued: a plain use-after-free, no ABA claim. *)
  (match Smr.Lifecycle.check_not_freed ~scheme:"X" ~what:"deref" c with
  | () -> Alcotest.fail "freed node dereference accepted"
  | exception Smr.Smr_intf.Use_after_free msg ->
      Alcotest.(check bool) "plain UAF reported" true (contains msg "deref");
      Alcotest.(check bool)
        ("no ABA claim before reuse: " ^ msg)
        false (contains msg "ABA"));
  (* Reissue the slot to a fresh node: the stale pointer is now ABA and the
     auditor says so. *)
  let _fresh = Smr.Lifecycle.on_alloc_hot ~bytes:0 ~relieve:ignore ~scheme:"X" counters in
  match Smr.Lifecycle.check_not_freed ~scheme:"X" ~what:"deref" c with
  | () -> Alcotest.fail "ABA'd node dereference accepted"
  | exception Smr.Smr_intf.Use_after_free msg ->
      Alcotest.(check bool)
        ("ABA reported after reuse: " ^ msg)
        true
        (contains msg "use after free" && contains msg "ABA")

(* -- the budget protocol on a real scheme --------------------------------- *)

(* node_bytes 48 + EBR's 16B overhead = one 64B class slot; a 1024B budget
   is 16 slots. Auto-scans are disabled (huge batch) so only the pressure
   relief can free. *)
let pressure_cfg =
  {
    (test_cfg ~threads:2) with
    Smr.Smr_intf.batch_size = 1_000_000;
    node_bytes = 48;
    budget_bytes = Some 1024;
  }

(* Allocating outside any bracket: the relief scan sees no reservation,
   frees the whole limbo list, and the run degrades gracefully — pressure
   events and slot reuse instead of an OOM. *)
let test_budget_relief_graceful () =
  let m =
    run_solo (fun () ->
        let t = Ebr.create pressure_cfg in
        for i = 1 to 64 do
          let n = Ebr.alloc t i in
          let g = Ebr.enter t in
          Ebr.retire t g n;
          Ebr.leave t g
        done;
        Ebr.metrics t)
  in
  let mem = m.Smr.Metrics.mem in
  Alcotest.(check bool) "budget pressure hit" true (mem.Mi.pressure_events > 0);
  Alcotest.(check int) "no OOM" 0 mem.Mi.oom_failures;
  Alcotest.(check bool) "relief freed nodes" true (m.Smr.Metrics.freed > 0);
  Alcotest.(check bool) "freed slots were reused" true (mem.Mi.reuse_hits > 0);
  Alcotest.(check bool) "resident stays within budget" true
    (mem.Mi.bytes_resident <= 1024)

(* The same loop under one long-held bracket pins the epoch horizon: the
   relief scan frees nothing, so the 17th allocation is a simulated OOM. *)
let test_budget_oom () =
  match
    run_solo (fun () ->
        let t = Ebr.create pressure_cfg in
        let g = Ebr.enter t in
        for i = 1 to 64 do
          Ebr.retire t g (Ebr.alloc t i)
        done;
        Ebr.leave t g;
        Ebr.stats t)
  with
  | _ -> Alcotest.fail "expected a simulated OOM under a pinned horizon"
  | exception Mi.Out_of_memory msg ->
      Alcotest.(check bool)
        ("OOM names the scheme: " ^ msg)
        true (contains msg "Epoch");
      Alcotest.(check bool) "OOM names the budget" true (contains msg "1024")

(* An allocation the arena refuses once, whose relief frees enough for
   the retry, is one pressure event: the retry's grant must not count a
   second refusal. Retired nodes sit outside any bracket, so the relief
   (an EBR scan, a Hyaline-S batch seal) frees them all. *)
let test_pressure_counted_once () =
  List.iter
    (fun (name, (module S : SMR)) ->
      let pressure t = (S.metrics t).Smr.Metrics.mem.Mi.pressure_events in
      let freed t = (S.stats t).Smr.Smr_intf.freed in
      let hit =
        run_solo (fun () ->
            let t = S.create pressure_cfg in
            let rec go i =
              if i > 64 then None
              else
                let p0 = pressure t and f0 = freed t in
                let n = S.alloc t i in
                let p1 = pressure t in
                if p1 > p0 then Some (p1 - p0, freed t - f0)
                else begin
                  let g = S.enter t in
                  S.retire t g n;
                  S.leave t g;
                  go (i + 1)
                end
            in
            go 1)
      in
      match hit with
      | None -> Alcotest.fail (name ^ ": the budget never refused")
      | Some (events, relieved) ->
          Alcotest.(check bool) (name ^ ": the relief freed nodes") true
            (relieved > 0);
          Alcotest.(check int)
            (name ^ ": one refused-then-granted allocation, one event")
            1 events)
    [ ("epoch", (module Ebr : SMR)); ("hyaline-s", (module Hyaline_s)) ]

(* -- executor: OOM as a recorded failure row ------------------------------ *)

(* A hashmap cell whose prefill alone exceeds the byte budget: the sweep
   must carry an "OOM: ..." failure row instead of aborting. *)
let test_executor_oom_row () =
  let cfg =
    {
      (Plan.base_cfg ~max_threads:1) with
      Smr.Smr_intf.budget_bytes = Some 20_000;
    }
  in
  let cell =
    Plan.cell ~cfg ~stalled:1 ~scheme:"Epoch"
      ~structure:Smr_harness.Registry.Hashmap ~threads:2 ()
  in
  match Executor.run_cell cell with
  | Executor.Failed msg ->
      Alcotest.(check bool)
        ("failure row is an OOM: " ^ msg)
        true
        (String.length msg >= 4 && String.sub msg 0 4 = "OOM:")
  | Executor.Done _ -> Alcotest.fail "expected an OOM failure row"

(* -- footprint timeline + serialization ----------------------------------- *)

let test_timeline_roundtrip () =
  let spec =
    {
      Workload.default_spec with
      threads = 3;
      key_range = 256;
      prefill = 64;
      budget = 20_000;
      buckets = 64;
      sample_every = 2_000;
      cfg = test_cfg ~threads:4;
    }
  in
  let module Map = Smr_ds.Michael_hashmap.Make (Ebr) in
  let r = Workload.run (module Map) spec in
  Alcotest.(check bool) "timeline sampled" true (r.Workload.timeline <> []);
  let rec monotone = function
    | (a : Workload.sample) :: (b :: _ as rest) ->
        a.Workload.s_at < b.Workload.s_at && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "timeline strictly time-ordered" true
    (monotone r.Workload.timeline);
  List.iter
    (fun (s : Workload.sample) ->
      Alcotest.(check bool) "resident positive" true (s.Workload.s_resident > 0);
      Alcotest.(check bool) "unreclaimed non-negative" true
        (s.Workload.s_unreclaimed >= 0))
    r.Workload.timeline;
  (* The cache payload round-trips the timeline, the allocator counters and
     the alloc op class losslessly. *)
  let r' = Executor.result_of_json (Executor.result_to_json r) in
  Alcotest.(check bool) "timeline survives" true
    (r'.Workload.timeline = r.Workload.timeline);
  Alcotest.(check bool) "metrics (incl. mem stats) survive" true
    (Smr.Metrics.equal r'.Workload.metrics r.Workload.metrics);
  Alcotest.(check int) "alloc count survives"
    r.Workload.op_costs.Smr_runtime.Sim_cell.allocs
    r'.Workload.op_costs.Smr_runtime.Sim_cell.allocs;
  Alcotest.(check bool) "allocs were charged" true
    (r.Workload.op_costs.Smr_runtime.Sim_cell.alloc_cost > 0)

(* -- the saturating unreclaimed counter ----------------------------------- *)

let test_unreclaimed_saturates () =
  Alcotest.(check int) "normal" 4
    (Smr.Metrics.unreclaimed_of ~retired:7 ~freed:3);
  Alcotest.(check int) "saturates at zero" 0
    (Smr.Metrics.unreclaimed_of ~retired:5 ~freed:5);
  match Smr.Metrics.unreclaimed_of ~retired:3 ~freed:5 with
  | _ -> Alcotest.fail "freed > retired accepted"
  | exception Assert_failure _ -> ()

(* -- injected bug: protected-slot reuse caught by the explorer ------------ *)

let scheme = "BrokenHP"

(* The deliberately broken scheme: the writer retires and frees a node
   while the reader has a hazard pointer published on it — the free path
   never scans the hazard array — and immediately reissues the freed slot
   to a fresh node. A reader that lost the race dereferences an ABA'd
   slot; the lifecycle auditor names it precisely. *)
let broken_reuse_program : Explore.program =
 fun () ->
  let counters = Smr.Lifecycle.make_counters () in
  let shared = Cell.make None in
  let hazard = Cell.make None in
  let writer () =
    let n = Smr.Lifecycle.on_alloc_hot ~bytes:0 ~relieve:ignore ~scheme counters in
    Cell.set shared (Some n);
    Cell.set shared None;
    Smr.Lifecycle.on_retire ~scheme n counters;
    (* BUG: frees without scanning [hazard]. *)
    Smr.Lifecycle.on_free ~scheme n counters;
    (* Free-list reuse makes the bug an ABA, not just a dangling read. *)
    ignore (Smr.Lifecycle.on_alloc_hot ~bytes:0 ~relieve:ignore ~scheme counters)
  in
  let reader () =
    match Cell.get shared with
    | Some n ->
        Cell.set hazard (Some n);
        (* the published hazard should protect this dereference *)
        Smr.Lifecycle.check_not_freed ~scheme ~what:"deref" n;
        Cell.set hazard None
    | None -> ()
  in
  ([ writer; reader ], fun () -> true)

let find_violation name outcome =
  match outcome with
  | Explore.Violation { schedule; message } -> (schedule, message)
  | Explore.Exhausted n | Explore.Limit_reached n ->
      Alcotest.fail
        (Printf.sprintf "%s missed the injected protected reuse (%d runs)"
           name n)

let test_broken_scheme_caught () =
  let schedule, message =
    find_violation "dfs" (Explore.check ~limit:10_000 broken_reuse_program)
  in
  Alcotest.(check bool)
    ("auditor flags the reuse as ABA: " ^ message)
    true
    (contains message "use after free" && contains message "ABA");
  (* Shrink to a hand-readable schedule that still fails identically. *)
  let shrunk = Explore.shrink broken_reuse_program schedule in
  Alcotest.(check bool)
    (Printf.sprintf "shrunk to <= 20 decisions (got %d)" (List.length shrunk))
    true
    (List.length shrunk <= 20);
  (match Explore.replay_outcome broken_reuse_program shrunk with
  | Ok () -> Alcotest.fail "shrunk schedule no longer fails"
  | Error m ->
      Alcotest.(check string) "shrunk replays to the same failure" message m);
  (* The counterexample survives the trace-file format. *)
  let trace =
    {
      Trace_file.meta =
        [ ("scheme", scheme); ("note", "free+reuse under a published hazard") ];
      faults = [];
      schedule = shrunk;
      message;
    }
  in
  let path = Filename.temp_file "hyaline_mem_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_file.save ~path trace;
      let loaded = Trace_file.load ~path in
      Alcotest.(check (list int))
        "schedule survives" shrunk loaded.Trace_file.schedule;
      match
        Explore.replay_outcome broken_reuse_program loaded.Trace_file.schedule
      with
      | Ok () -> Alcotest.fail "loaded trace does not reproduce"
      | Error m ->
          Alcotest.(check string) "loaded trace reproduces the failure"
            loaded.Trace_file.message m)

let suite =
  [
    Alcotest.test_case "size classes" `Quick test_size_classes;
    Alcotest.test_case "arena reuse + accounting" `Quick test_arena_reuse;
    Alcotest.test_case "generation ABA detection" `Quick test_gen_aba_detection;
    Alcotest.test_case "budget relief (graceful)" `Quick
      test_budget_relief_graceful;
    Alcotest.test_case "budget OOM (pinned horizon)" `Quick test_budget_oom;
    Alcotest.test_case "pressure counted once" `Quick
      test_pressure_counted_once;
    Alcotest.test_case "executor OOM failure row" `Quick test_executor_oom_row;
    Alcotest.test_case "timeline + json round trip" `Quick
      test_timeline_roundtrip;
    Alcotest.test_case "unreclaimed saturates" `Quick test_unreclaimed_saturates;
    Alcotest.test_case "broken scheme caught + shrunk" `Quick
      test_broken_scheme_caught;
  ]
