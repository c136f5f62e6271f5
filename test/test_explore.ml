(** Exhaustive-exploration tests: small programs whose ENTIRE schedule
    tree is checked. A negative control (a racy counter) proves the
    explorer finds real violations; the positive cases are exhaustive
    safety proofs for Hyaline reclamation over every interleaving. *)

module Explore = Smr_runtime.Explore
module Cell = Smr_runtime.Sim_cell
open Test_support

let no_violation ?(require_exhausted = false) name = function
  | Explore.Exhausted n ->
      Alcotest.(check bool) (name ^ ": explored at least one") true (n > 0)
  | Explore.Limit_reached n ->
      if require_exhausted then
        Alcotest.fail (Printf.sprintf "%s: limit reached after %d" name n)
      else
        (* a bounded systematic sweep: no violation within the budget *)
        Alcotest.(check bool) name true (n > 0)
  | Explore.Violation { message; schedule } ->
      Alcotest.fail
        (Printf.sprintf "%s: violation [%s] at schedule [%s]" name message
           (String.concat ";" (List.map string_of_int schedule)))

(* Negative control: unsynchronised read-modify-write must lose an update
   in SOME schedule, and the explorer must find it. *)
let test_finds_lost_update () =
  let program () =
    let c = Cell.make 0 in
    let bump () = Cell.set c (Cell.get c + 1) in
    ([ bump; bump ], fun () -> Cell.get c = 2)
  in
  match Explore.check ~limit:1_000 program with
  | Explore.Violation { schedule; _ } ->
      Alcotest.(check bool)
        "violating schedule replays to a failure" false
        (Explore.replay program schedule)
  | Explore.Exhausted _ | Explore.Limit_reached _ ->
      Alcotest.fail "lost update not found"

(* Positive control: the same program with a CAS loop has no bad schedule. *)
let test_cas_counter_exhaustive () =
  let program () =
    let c = Cell.make 0 in
    let rec bump () =
      let v = Cell.get c in
      if not (Cell.compare_and_set c v (v + 1)) then bump ()
    in
    ([ bump; bump ], fun () -> Cell.get c = 2)
  in
  no_violation ~require_exhausted:true "cas-counter"
    (Explore.check ~limit:200_000 program)

(* Every interleaving of two Hyaline threads doing push-then-pop must
   reclaim everything: an exhaustive mini-proof of Theorem 1 at this
   scale, with the lifecycle auditor as the oracle. *)
let exhaustive_reclamation ?require_exhausted ?(limit = 150_000)
    (module S : SMR) name =
  let module St = Smr_ds.Treiber_stack.Make (S) in
  let program () =
    let cfg =
      { (test_cfg ~threads:2) with slots = 2; batch_size = 2 }
    in
    let stack = St.create cfg in
    let worker v () =
      St.push stack v;
      ignore (St.pop stack)
    in
    ( [ worker 1; worker 2 ],
      fun () ->
        St.flush stack;
        Smr.Smr_intf.unreclaimed (St.stats stack) = 0 )
  in
  no_violation ?require_exhausted name (Explore.check ~limit program)

let test_hyaline_exhaustive () =
  exhaustive_reclamation (module Hyaline) "hyaline"

let test_hyaline_llsc_exhaustive () =
  exhaustive_reclamation (module Hyaline_llsc) "hyaline-llsc"

let test_hyaline1_exhaustive () =
  (* wait-free enter/leave keep the tree small enough to exhaust fully *)
  exhaustive_reclamation ~require_exhausted:true ~limit:2_000_000
    (module Hyaline1) "hyaline-1"

let test_hyaline_s_exhaustive () =
  exhaustive_reclamation (module Hyaline_s) "hyaline-s"

(* -- sleep sets ---------------------------------------------------------- *)

(* Pruning must preserve verdicts while exploring no MORE executions
   than the raw tree: same violation found on the racy counter, same
   clean exhaustion on the CAS counter, fewer or equal runs, and every
   value a racing reader can see. *)
let test_sleep_sets_sound_and_lean () =
  let racy_program () =
    let c = Cell.make 0 in
    let bump () = Cell.set c (Cell.get c + 1) in
    ([ bump; bump ], fun () -> Cell.get c = 2)
  in
  (match Explore.check ~sleep_sets:false ~limit:1_000 racy_program with
  | Explore.Violation _ -> ()
  | _ -> Alcotest.fail "raw DFS missed the lost update");
  (match Explore.check ~sleep_sets:true ~limit:1_000 racy_program with
  | Explore.Violation _ -> ()
  | _ -> Alcotest.fail "pruned DFS missed the lost update");
  let cas_program () =
    let c = Cell.make 0 in
    let rec bump () =
      let v = Cell.get c in
      if not (Cell.compare_and_set c v (v + 1)) then bump ()
    in
    ([ bump; bump ], fun () -> Cell.get c = 2)
  in
  let runs label outcome =
    match outcome with
    | Explore.Exhausted n -> n
    | _ -> Alcotest.fail (label ^ ": CAS counter did not exhaust")
  in
  let raw =
    runs "raw" (Explore.check ~sleep_sets:false ~limit:500_000 cas_program)
  in
  let pruned =
    runs "pruned" (Explore.check ~sleep_sets:true ~limit:500_000 cas_program)
  in
  Alcotest.(check bool)
    (Printf.sprintf "pruned %d <= raw %d executions" pruned raw)
    true (pruned <= raw);
  (* Disjoint cells commute: two independent writers' schedules mostly
     collapse. (Not all the way to 1 — a thread's footprint is unknown
     until it reaches its first step, and pruning is conservative
     there.) *)
  let disjoint_program () =
    let a = Cell.make 0 and b = Cell.make 0 in
    let writer c () =
      Cell.set c 1;
      Cell.set c 2
    in
    ( [ writer a; writer b ],
      fun () -> Cell.get a = 2 && Cell.get b = 2 )
  in
  let raw =
    runs "disjoint raw"
      (Explore.check ~sleep_sets:false ~limit:10_000 disjoint_program)
  in
  let pruned =
    runs "disjoint pruned" (Explore.check ~limit:10_000 disjoint_program)
  in
  Alcotest.(check bool)
    (Printf.sprintf "independent writes pruned (%d < %d)" pruned raw)
    true (pruned < raw);
  (* A read and a write of one cell never commute: the reader must see
     every value the writer leaves in the cell. Each thread first touches
     a private cell, so both threads have started, and their racy
     footprints are known, where the read and the second write branch. A
     relation that let those two commute would prune the read between
     the writes, and the value 1 with it. *)
  let seen = Hashtbl.create 4 in
  let read_write_program () =
    let a = Cell.make 0 and b = Cell.make 0 and c = Cell.make 0 in
    let got = ref (-1) in
    ( [
        (fun () ->
          Cell.set a 1;
          Cell.set c 1;
          Cell.set c 2);
        (fun () ->
          Cell.set b 1;
          got := Cell.get c);
      ],
      fun () ->
        Hashtbl.replace seen !got ();
        true )
  in
  ignore
    (runs "read/write pruned" (Explore.check ~limit:10_000 read_write_program));
  Alcotest.(check (list int))
    "pruned DFS sees the reader read every value" [ 0; 1; 2 ]
    (List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) seen []))

(* -- fault injection ----------------------------------------------------- *)

(* A permanent stall parks the victim with its work undone: the
   post-condition must be evaluated anyway (no deadlock verdict), and
   must see the victim's missing effects. *)
let test_fault_stall_forever () =
  let victim_ran = ref false in
  let program () =
    let c = Cell.make 0 in
    victim_ran := false;
    ( [
        (fun () ->
          Cell.set c 1;
          victim_ran := true);
        (fun () -> Cell.set c 2);
      ],
      fun () -> (not !victim_ran) && Cell.get c = 2 )
  in
  let faults = [ Explore.stall_at ~victim:0 ~at:1 () ] in
  match Explore.check ~faults ~limit:1_000 program with
  | Explore.Exhausted _ | Explore.Limit_reached _ -> ()
  | Explore.Violation { message; _ } ->
      Alcotest.fail ("stalled victim still ran: " ^ message)

(* A stall with a resume point releases the victim: its effects must be
   back — in EVERY schedule, or the resume path has a hole. *)
let test_fault_stall_resume () =
  let program () =
    let a = Cell.make 0 and b = Cell.make 0 in
    ( [ (fun () -> Cell.set a 1); (fun () -> Cell.set b 1) ],
      fun () -> Cell.get a = 1 && Cell.get b = 1 )
  in
  let faults = [ Explore.stall_at ~victim:0 ~at:1 ~resume_at:3 () ] in
  match Explore.check ~faults ~limit:1_000 program with
  | Explore.Exhausted _ | Explore.Limit_reached _ -> ()
  | Explore.Violation { message; _ } ->
      Alcotest.fail ("resumed victim lost its effects: " ^ message)

(* A kill drops the victim entirely; the run still counts as finished. *)
let test_fault_kill () =
  let program () =
    let c = Cell.make 0 in
    ( [ (fun () -> Cell.set c 1); (fun () -> Cell.set c 2) ],
      fun () -> Cell.get c = 2 )
  in
  let faults = [ Explore.kill_at ~victim:0 ~at:1 () ] in
  match Explore.check ~faults ~limit:1_000 program with
  | Explore.Exhausted _ | Explore.Limit_reached _ -> ()
  | Explore.Violation { message; _ } ->
      Alcotest.fail ("killed victim still wrote: " ^ message)

(* -- replay determinism (regression) ------------------------------------- *)

(* A violating schedule must replay to the byte-identical failure
   message, every time, before AND after shrinking — this is what makes
   trace files trustworthy. *)
let replay_twice name program schedule expected =
  let once = Explore.replay_outcome program schedule in
  let twice = Explore.replay_outcome program schedule in
  match (once, twice) with
  | Error a, Error b ->
      Alcotest.(check string) (name ^ ": deterministic message") a b;
      Alcotest.(check string) (name ^ ": matches the original") expected a
  | Ok (), _ | _, Ok () -> Alcotest.fail (name ^ ": replay did not fail")

let test_replay_deterministic () =
  let program () =
    let c = Cell.make 0 in
    let bump () = Cell.set c (Cell.get c + 1) in
    ([ bump; bump; bump ], fun () -> Cell.get c = 3)
  in
  (* find it with the fuzzer, not DFS, so the schedule is a "wild" one *)
  match
    Explore.explore ~mode:(Explore.Random_walk { walks = 200 }) ~seed:5
      program
  with
  | Explore.Violation { schedule; message } ->
      replay_twice "raw" program schedule message;
      let shrunk = Explore.shrink program schedule in
      Alcotest.(check bool) "shrinking did not grow the schedule" true
        (List.length shrunk <= List.length schedule);
      replay_twice "shrunk" program shrunk message
  | Explore.Exhausted _ | Explore.Limit_reached _ ->
      Alcotest.fail "fuzzer missed the lost update"

(* -- golden exploration schedules ----------------------------------------

   Pin the exact execution orders the explorer visits for a fixed
   (program, mode, seed): each thread logs its identity at every step
   into a shared buffer, one "|" per program instantiation, and the MD5
   of the whole buffer across the run is asserted. Covers the sleep-set
   DFS (run count and traversal order), weighted random walks and PCT
   (their RNG streams), so perf work on the scheduler or explorer cannot
   silently change which schedules get explored. Captured before the
   hot-path overhaul; must never change. *)

let logging_program buf () =
  Buffer.add_char buf '|';
  let c = Cell.make 0 in
  let worker tag () =
    for i = 1 to 4 do
      Buffer.add_char buf tag;
      if i land 1 = 0 then ignore (Cell.get c) else Cell.set c i
    done
  in
  ([ worker 'a'; worker 'b'; worker 'c' ], fun () -> true)

let golden_explore name mode expect =
  let buf = Buffer.create 4096 in
  (match Explore.explore ~mode ~seed:5 ~limit:64 (logging_program buf) with
  | Explore.Violation { message; _ } ->
      Alcotest.fail (name ^ ": unexpected violation " ^ message)
  | Explore.Exhausted _ | Explore.Limit_reached _ -> ());
  Alcotest.(check string)
    (name ^ ": golden schedule hash")
    expect
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_golden_dfs () =
  golden_explore "dfs" Explore.Dfs "b4d15cacf26d5ecffb37d65b2984f1e4"

let test_golden_random_walks () =
  golden_explore "random-walks"
    (Explore.Random_walk { walks = 3 })
    "07cc6d72f789b4047b69655dc465ccbd"

let test_golden_pct () =
  golden_explore "pct"
    (Explore.Pct { walks = 3; change_points = 2 })
    "a05dd934f82ac9af60a13d1f48c501dd"

(* Sleep-set pruning must stay sound when faults change which threads
   can run: for every victim, decision index and fault kind, pruned DFS
   reaches exactly the final states raw DFS reaches, and the same verdict
   (a permanent stall can leave only stalled threads, a deadlock). t0 and
   t1 touch disjoint warm-up cells, then both write a shared cell that t2
   reads. *)
let test_sleep_sets_sound_under_faults () =
  let mk () =
    let a = Cell.make 0 and b = Cell.make 0 and c = Cell.make 0 in
    ( [
        (fun () ->
          Cell.set a 1;
          Cell.set c 10);
        (fun () ->
          Cell.set b 1;
          Cell.set c 20);
        (fun () -> ignore (Cell.get c));
      ],
      fun () -> (Cell.get a, Cell.get b, Cell.get c) )
  in
  let finals ~faults ~sleep_sets =
    let seen = Hashtbl.create 64 in
    let program () =
      let threads, final = mk () in
      ( threads,
        fun () ->
          Hashtbl.replace seen (final ()) ();
          true )
    in
    let verdict =
      match Explore.check ~sleep_sets ~limit:1_000_000 ~faults program with
      | Explore.Exhausted _ -> "exhausted"
      | Explore.Limit_reached _ -> Alcotest.fail "exploration did not exhaust"
      | Explore.Violation { message; _ } -> message
    in
    let states = Hashtbl.fold (fun k () acc -> k :: acc) seen [] in
    (verdict, List.sort compare states)
  in
  List.iter
    (fun victim ->
      for at = 1 to 12 do
        List.iter
          (fun (kind, faults) ->
            Alcotest.(check (pair string (list (triple int int int))))
              (Printf.sprintf "victim %d, %s at %d" victim kind at)
              (finals ~faults ~sleep_sets:false)
              (finals ~faults ~sleep_sets:true))
          [
            ("kill", [ Explore.kill_at ~victim ~at () ]);
            ("stall", [ Explore.stall_at ~victim ~at () ]);
            ( "stall+resume",
              [ Explore.stall_at ~victim ~at ~resume_at:(at + 3) () ] );
          ]
      done)
    [ 0; 1; 2 ]

let suite =
  [
    Alcotest.test_case "finds-lost-update" `Quick test_finds_lost_update;
    Alcotest.test_case "cas-counter-exhaustive" `Quick
      test_cas_counter_exhaustive;
    Alcotest.test_case "sleep-sets-sound-and-lean" `Quick
      test_sleep_sets_sound_and_lean;
    Alcotest.test_case "fault-stall-forever" `Quick test_fault_stall_forever;
    Alcotest.test_case "fault-stall-resume" `Quick test_fault_stall_resume;
    Alcotest.test_case "fault-kill" `Quick test_fault_kill;
    Alcotest.test_case "sleep-sets-sound-under-faults" `Quick
      test_sleep_sets_sound_under_faults;
    Alcotest.test_case "replay-deterministic" `Quick
      test_replay_deterministic;
    Alcotest.test_case "golden-dfs" `Quick test_golden_dfs;
    Alcotest.test_case "golden-random-walks" `Quick test_golden_random_walks;
    Alcotest.test_case "golden-pct" `Quick test_golden_pct;
    Alcotest.test_case "hyaline-exhaustive" `Slow test_hyaline_exhaustive;
    Alcotest.test_case "hyaline-llsc-exhaustive" `Slow
      test_hyaline_llsc_exhaustive;
    Alcotest.test_case "hyaline-1-exhaustive" `Slow test_hyaline1_exhaustive;
    Alcotest.test_case "hyaline-s-exhaustive" `Slow
      test_hyaline_s_exhaustive;
  ]
