(** Tests for the deterministic scheduler and simulated atomics. *)

module Sched = Smr_runtime.Scheduler
module Cell = Smr_runtime.Sim_cell

let test_runs_to_completion () =
  let hits = ref 0 in
  let total =
    Test_support.run_threads ~threads:5 (fun _ ->
        for _ = 1 to 10 do
          incr hits;
          Sched.step 1
        done)
  in
  Alcotest.(check int) "every iteration ran" 50 !hits;
  Alcotest.(check bool) "cost accumulated" true (total >= 50)

let test_deterministic () =
  let trace seed =
    let log = Buffer.create 64 in
    let sched = Sched.create ~seed () in
    for tid = 0 to 3 do
      ignore
        (Sched.spawn sched (fun () ->
             for i = 1 to 5 do
               Buffer.add_string log (Printf.sprintf "%d.%d;" tid i);
               Sched.step 1
             done))
    done;
    ignore (Sched.run sched);
    Buffer.contents log
  in
  Alcotest.(check string) "same seed, same schedule" (trace 7) (trace 7);
  Alcotest.(check bool)
    "different seeds interleave differently" true
    (trace 7 <> trace 8)

let test_interleaving_is_real () =
  (* With yields between read and write, increments must get lost for some
     seed — proof the scheduler actually interleaves at step granularity. *)
  let lost_updates seed =
    let c = Cell.make 0 in
    let sched = Sched.create ~seed () in
    for _ = 1 to 4 do
      ignore
        (Sched.spawn sched (fun () ->
             for _ = 1 to 25 do
               let v = Cell.get c in
               Cell.set c (v + 1)
             done))
    done;
    ignore (Sched.run sched);
    100 - Cell.get c
  in
  let total = List.fold_left (fun a s -> a + lost_updates s) 0 [ 1; 2; 3 ] in
  Alcotest.(check bool) "some increments lost across seeds" true (total > 0)

let test_cas_never_loses () =
  let c = Cell.make 0 in
  ignore
    (Test_support.run_threads ~threads:4 (fun _ ->
         for _ = 1 to 25 do
           let rec bump () =
             let v = Cell.get c in
             if not (Cell.compare_and_set c v (v + 1)) then bump ()
           in
           bump ()
         done));
  Alcotest.(check int) "CAS loop increments all land" 100 (Cell.get c)

let test_faa_atomic () =
  let c = Cell.make 0 in
  ignore
    (Test_support.run_threads ~threads:8 (fun _ ->
         for _ = 1 to 50 do
           ignore (Cell.fetch_and_add c 1)
         done));
  Alcotest.(check int) "FAA increments all land" 400 (Cell.get c)

let test_stall_and_unstall () =
  let sched = Sched.create () in
  let reached = ref false in
  let stalled_tid =
    Sched.spawn sched (fun () ->
        Sched.stall ();
        reached := true)
  in
  ignore
    (Sched.spawn sched (fun () ->
         for _ = 1 to 5 do
           Sched.step 1
         done));
  (match Sched.run sched with
  | Sched.Only_stalled -> ()
  | _ -> Alcotest.fail "expected Only_stalled");
  Alcotest.(check bool) "stalled thread did not run past stall" false !reached;
  Sched.unstall sched stalled_tid;
  (match Sched.run sched with
  | Sched.All_finished -> ()
  | _ -> Alcotest.fail "expected All_finished after unstall");
  Alcotest.(check bool) "unstalled thread completed" true !reached

let test_budget () =
  let sched = Sched.create () in
  ignore
    (Sched.spawn sched (fun () ->
         while true do
           Sched.step 1
         done));
  match Sched.run ~budget:100 sched with
  | Sched.Budget_exhausted ->
      Alcotest.(check bool) "clock advanced to budget" true
        (Sched.now sched >= 100)
  | _ -> Alcotest.fail "expected Budget_exhausted"

let test_self_ids () =
  let seen = Array.make 6 false in
  ignore
    (Test_support.run_threads ~threads:6 (fun tid ->
         Alcotest.(check int) "self matches spawn id" tid (Sched.self ());
         seen.(tid) <- true));
  Alcotest.(check bool) "all tids ran" true (Array.for_all Fun.id seen)

let test_outside_scheduler_noops () =
  (* Cells must work as plain sequential cells outside any scheduler. *)
  let c = Cell.make 1 in
  Cell.set c 2;
  Alcotest.(check int) "plain get/set" 2 (Cell.get c);
  Alcotest.(check bool) "plain cas" true (Cell.compare_and_set c 2 3);
  Alcotest.(check int) "plain faa" 3 (Cell.fetch_and_add c 5);
  Alcotest.(check int) "faa applied" 8 (Cell.get c)

(* -- golden determinism ---------------------------------------------------

   The simulator's contract is bit-for-bit reproducibility: same seed,
   same schedule, same event stream, forever. These tests pin an MD5 of
   the full scheduler event trace (and the op-class counters) for a fixed
   scenario, so any change to the step pipeline that perturbs scheduling —
   an extra RNG draw, a reordered cost charge, a different yield point —
   fails loudly instead of silently invalidating every cached result and
   committed figure. The hashes were captured before the hot-path
   overhaul; they must never change. *)

let trace_line buf ev =
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  match ev with
  | Sched.Ev_spawn { tid; at } -> p "S%d@%d;" tid at
  | Sched.Ev_step { tid; cost; at } -> p "s%d+%d@%d;" tid cost at
  | Sched.Ev_stall { tid; at } -> p "z%d@%d;" tid at
  | Sched.Ev_unstall { tid; at } -> p "u%d@%d;" tid at
  | Sched.Ev_finish { tid; at } -> p "f%d@%d;" tid at
  | Sched.Ev_suspend { tid; at } -> p "p%d@%d;" tid at
  | Sched.Ev_resume { tid; at } -> p "r%d@%d;" tid at
  | Sched.Ev_kill { tid; at } -> p "k%d@%d;" tid at
  | Sched.Ev_join { tid; at } -> p "J%d@%d;" tid at
  | Sched.Ev_leave { tid; at } -> p "L%d@%d;" tid at

(* A pinned mixed-op scenario touching every op class, a self-stalling
   thread, fault-injection suspend/resume, and a budget-bounded prefix. *)
let golden_scenario () =
  Cell.reset_ids ();
  let buf = Buffer.create 8192 in
  let sched = Sched.create ~seed:11 () in
  Sched.set_tracer sched (Some (trace_line buf));
  let cells = Array.init 16 (fun i -> Cell.make i) in
  let staller =
    Sched.spawn sched (fun () ->
        ignore (Cell.fetch_and_add cells.(0) 1);
        Sched.stall ();
        Cell.set cells.(0) 99)
  in
  for tid = 1 to 5 do
    ignore
      (Sched.spawn sched (fun () ->
           for i = 1 to 40 do
             let c = cells.(((tid * 7) + (i * 3)) mod 16) in
             match (tid + i) land 3 with
             | 0 -> ignore (Cell.get c)
             | 1 -> Cell.set c i
             | 2 -> ignore (Cell.compare_and_set c (Cell.get c) i)
             | _ -> ignore (Cell.fetch_and_add c 1)
           done))
  done;
  (* Bounded prefix, a fault-injection park/unpark, then run to the end. *)
  (match Sched.run ~budget:100 sched with
  | Sched.Budget_exhausted -> ()
  | _ -> Alcotest.fail "golden: expected Budget_exhausted");
  Sched.suspend sched 2;
  (match Sched.run ~budget:150 sched with
  | Sched.Budget_exhausted -> ()
  | _ -> Alcotest.fail "golden: expected Budget_exhausted (2)");
  Sched.resume sched 2;
  (match Sched.run sched with
  | Sched.Only_stalled -> ()
  | _ -> Alcotest.fail "golden: expected Only_stalled");
  Sched.unstall sched staller;
  (match Sched.run sched with
  | Sched.All_finished -> ()
  | _ -> Alcotest.fail "golden: expected All_finished");
  (buf, sched)

let golden_trace_hash = "81c0e0984f39f3fa5350a5719fa017c8"
let golden_clock = 657
let golden_counts = "r100/100 w51/204 pw0/0 c45+5/200 f51/153 s0/0 a0/0"

let test_golden_trace () =
  let before = Cell.snapshot_counts () in
  let buf, sched = golden_scenario () in
  Alcotest.(check string)
    "golden scheduler event-trace hash" golden_trace_hash
    (Digest.to_hex (Digest.string (Buffer.contents buf)));
  Alcotest.(check int) "golden final clock" golden_clock (Sched.now sched);
  let d = Cell.diff_counts ~now:(Cell.snapshot_counts ()) ~past:before in
  let counts =
    Printf.sprintf "r%d/%d w%d/%d pw%d/%d c%d+%d/%d f%d/%d s%d/%d a%d/%d"
      d.Cell.reads d.Cell.read_cost d.Cell.writes d.Cell.write_cost
      d.Cell.plain_writes d.Cell.plain_write_cost d.Cell.cas_ok d.Cell.cas_fail
      d.Cell.cas_cost d.Cell.faas d.Cell.faa_cost d.Cell.swaps d.Cell.swap_cost
      d.Cell.allocs d.Cell.alloc_cost
  in
  Alcotest.(check string) "golden op-class counters" golden_counts counts

(* Same scenario, run twice in one process: the trace must be identical,
   proving no hidden global state leaks between runs. *)
let test_golden_trace_stable () =
  let buf1, _ = golden_scenario () in
  let buf2, _ = golden_scenario () in
  Alcotest.(check string)
    "same-seed reruns are byte-identical" (Buffer.contents buf1)
    (Buffer.contents buf2)

(* The step hot path allocates nothing: a charged read reaches the
   scheduler through the cell's domain context, records its footprint in
   thread fields and draws the RNG, and with one fiber the draw always
   picks the caller, so no effect is performed either. *)
let test_step_allocates_nothing () =
  let c = Cell.make 1 in
  let words = ref nan in
  ignore
    (Test_support.run_threads ~threads:1 (fun _ ->
         let before = Gc.minor_words () in
         for _ = 1 to 100_000 do
           ignore (Sys.opaque_identity (Cell.get c))
         done;
         words := Gc.minor_words () -. before));
  Alcotest.(check (float 0.))
    "minor words for 100,000 charged reads" 0. !words

(* Every switch is a handoff: the handler that catches a yield resumes
   the next fiber with a [continue] in tail position, so the handler's
   stack does not grow with the number of switches. Under a 2 MB stack
   limit, eight readers switch about 1.75 M times here, through yields,
   a timed sleeper's stalls and wake-ups, and one stall/unstall pair; a
   handoff that kept its frame would raise [Stack_overflow]. *)
let test_handoff_constant_stack () =
  let saved = Gc.get () in
  Gc.set { saved with stack_limit = 1 lsl 18 };
  Fun.protect ~finally:(fun () -> Gc.set saved) @@ fun () ->
  let sched = Sched.create ~seed:5 () in
  let c = Cell.make 1 in
  let reads () =
    for _ = 1 to 250_000 do
      ignore (Sys.opaque_identity (Cell.get c))
    done
  in
  let stalled = Sched.spawn sched (fun () -> Sched.stall ()) in
  for _ = 1 to 7 do
    ignore (Sched.spawn sched reads)
  done;
  ignore
    (Sched.spawn sched (fun () ->
         reads ();
         while Sched.state sched stalled = Sched.Runnable do
           ignore (Cell.get c)
         done;
         Sched.unstall sched stalled));
  ignore
    (Sched.spawn sched (fun () ->
         for _ = 1 to 1_000 do
           Sched.sleep_until (Sched.now sched + 500)
         done));
  match Sched.run sched with
  | Sched.All_finished -> ()
  | _ -> Alcotest.fail "expected All_finished"

(* The handler runs the picker and the threads' code up to their next
   yield, so an exception from either leaves [run] from inside a switch.
   [run] must raise it and leave the domain with no active scheduler, and
   no decision state may carry over: a fresh scheduler on the domain runs
   to completion, and so does the one whose picker raised once the
   picker is gone. *)
exception Picker_gave_up

let test_exception_inside_handoff () =
  let readers sched n =
    let c = Cell.make 0 in
    for _ = 1 to 4 do
      ignore
        (Sched.spawn sched (fun () ->
             for _ = 1 to n do
               ignore (Cell.fetch_and_add c 1)
             done))
    done
  in
  let raises name exn sched =
    (match Sched.run sched with
    | _ -> Alcotest.failf "%s: run returned" name
    | exception e when e == exn -> ()
    | exception e -> raise e);
    Alcotest.(check bool) (name ^ ": no active scheduler") false
      (Sched.inside ())
  in
  let finishes name sched =
    match Sched.run sched with
    | Sched.All_finished -> ()
    | _ -> Alcotest.failf "%s: expected All_finished" name
  in
  let fresh name =
    let sched = Sched.create () in
    readers sched 1_000;
    finishes (name ^ ": fresh scheduler") sched
  in
  let boom = Failure "boom" in
  let sched = Sched.create () in
  readers sched 10_000;
  ignore
    (Sched.spawn sched (fun () ->
         for _ = 1 to 10_000 do
           Sched.step 1
         done;
         raise boom));
  raises "thread raises" boom sched;
  fresh "thread raises";
  let sched = Sched.create () in
  readers sched 10_000;
  let decisions = ref 0 in
  Sched.set_picker sched
    (Some
       (fun width ->
         incr decisions;
         if !decisions > 20_000 then raise Picker_gave_up else width - 1));
  raises "picker raises" Picker_gave_up sched;
  fresh "picker raises";
  Sched.set_picker sched None;
  finishes "picker removed" sched

let suite =
  [
    Alcotest.test_case "runs-to-completion" `Quick test_runs_to_completion;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "interleaving-is-real" `Quick test_interleaving_is_real;
    Alcotest.test_case "cas-never-loses" `Quick test_cas_never_loses;
    Alcotest.test_case "faa-atomic" `Quick test_faa_atomic;
    Alcotest.test_case "stall-unstall" `Quick test_stall_and_unstall;
    Alcotest.test_case "budget" `Quick test_budget;
    Alcotest.test_case "self-ids" `Quick test_self_ids;
    Alcotest.test_case "outside-scheduler" `Quick test_outside_scheduler_noops;
    Alcotest.test_case "golden-trace" `Quick test_golden_trace;
    Alcotest.test_case "golden-trace-stable" `Quick test_golden_trace_stable;
    Alcotest.test_case "step-allocates-nothing" `Quick
      test_step_allocates_nothing;
    Alcotest.test_case "handoff-constant-stack" `Quick
      test_handoff_constant_stack;
    Alcotest.test_case "exception-inside-handoff" `Quick
      test_exception_inside_handoff;
  ]
