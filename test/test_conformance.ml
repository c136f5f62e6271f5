(** The adversarial verification engine end-to-end: the scheme x
    structure conformance matrix under all three exploration modes, the
    stall- and kill-injection robustness probes judged against each
    scheme's own [robust] flag, and the full counterexample workflow — a
    deliberately injected use-after-free is caught by the fuzz scheduler,
    shrunk to a handful of decisions, serialized to a trace file and
    replayed. *)

module Explore = Smr_runtime.Explore
module Cell = Smr_runtime.Sim_cell
module Verify = Smr_harness.Verify
module Trace_file = Smr_harness.Trace_file
open Test_support

(* -- the conformance matrix ---------------------------------------------- *)

(* Every scheme in lib/smr + lib/hyaline x every structure in lib/ds x
   {dfs, random, pct} x {static, churn}: no cell may report a violation,
   and the grid must actually have the advertised extent (a registry
   regression would silently shrink the sweep). The churn column runs the
   same program with every thread register/deregistering around its
   operations, so join/leave, orphan handoff and slot recycling are
   explored adversarially too. *)
let test_matrix () =
  let cells = Verify.run_matrix ~seed:0 () in
  let n_schemes = List.length Verify.schemes
  and n_structures = List.length Smr_harness.Registry.structures in
  Alcotest.(check int)
    "grid extent"
    (n_schemes * n_structures * 3 * 2)
    (List.length cells);
  let churn_cells = List.filter (fun c -> c.Verify.c_churn) cells in
  Alcotest.(check int)
    "half the grid is churn-mode"
    (List.length cells / 2)
    (List.length churn_cells);
  (* Cardinalities derive from the registry tables, not literals: adding
     a scheme must grow the matrix here automatically, and a registry
     regression (dropped scheme, shrunken structure list) must fail. *)
  Alcotest.(check int)
    "scheme axis is the registry's full set"
    (List.length Smr_harness.Registry.every_scheme_name)
    n_schemes;
  Alcotest.(check bool) "at least 13 schemes" true (n_schemes >= 13);
  Alcotest.(check int)
    "structure axis is the registry's full set"
    (List.length Smr_harness.Registry.structures)
    n_structures;
  (* The skipped cells are exactly the registry's unsupported pairs
     (today: Bonsai x {HP, HE}) in all three modes, churn and static. *)
  let unsupported_pairs =
    List.length
      (List.filter
         (fun (scheme, structure) ->
           not (Smr_harness.Registry.supported structure scheme))
         (List.concat_map
            (fun (scheme, _) ->
              List.map (fun st -> (scheme, st)) Smr_harness.Registry.structures)
            Verify.schemes))
  in
  let skipped =
    List.filter
      (fun c ->
        match c.Verify.c_verdict with Verify.Skipped _ -> true | _ -> false)
      cells
  in
  Alcotest.(check int)
    "skips are exactly the registry's unsupported pairs"
    (unsupported_pairs * 3 * 2)
    (List.length skipped);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        "skips only on bonsai" true
        (c.Verify.c_structure = Smr_harness.Registry.Bonsai))
    skipped;
  match Verify.failures cells with
  | [] -> ()
  | c :: _ -> (
      match c.Verify.c_verdict with
      | Verify.Fail { message; shrunk; _ } ->
          Alcotest.fail
            (Printf.sprintf "%s/%s/%s%s: %s (shrunk schedule [%s])"
               c.Verify.c_scheme
               (Smr_harness.Registry.structure_name c.Verify.c_structure)
               (Verify.mode_name c.Verify.c_mode)
               (if c.Verify.c_churn then "/churn" else "")
               message
               (String.concat ";" (List.map string_of_int shrunk)))
      | _ -> assert false)

(* -- stall-injection robustness ------------------------------------------ *)

(* A reader is parked forever inside its bracket, or killed there, while
   writers churn. Each scheme's peak-unreclaimed must match its own
   robustness claim (Table 1) under both faults: bounded for the robust
   schemes, unbounded growth (here: proportional to churn, far past the
   bound) for the rest. *)
let test_robustness_probes () =
  let bound = Verify.robust_bound in
  List.iter
    (fun (fault, what) ->
      let probes = Verify.probe_all ~fault () in
      Alcotest.(check int)
        (what ^ ": every scheme but Leaky probed")
        (List.length Verify.schemes - 1)
        (List.length probes);
      List.iter
        (fun (r : Verify.robustness) ->
          if r.Verify.r_robust then
            Alcotest.(check bool)
              (Printf.sprintf "%s: robust scheme bounded under a %s reader"
                 r.Verify.r_scheme what)
              true
              (r.Verify.r_peak <= bound)
          else
            Alcotest.(check bool)
              (Printf.sprintf "%s: non-robust scheme grows with churn (%s)"
                 r.Verify.r_scheme what)
              true
              (r.Verify.r_peak > 2 * bound))
        probes;
      (* The paper's headline contrast (Fig. 10a): EBR's backlog dwarfs a
         robust Hyaline variant's under the very same fault plan. *)
      let peak name =
        (List.find (fun r -> r.Verify.r_scheme = name) probes).Verify.r_peak
      in
      Alcotest.(check bool)
        (what ^ ": EBR peak dwarfs Hyaline-1S peak")
        true
        (peak "Epoch" > 4 * peak "Hyaline-1S"))
    [ (`Stall, "stalled"); (`Kill, "killed") ]

(* -- injected bug: catch, shrink, trace, replay -------------------------- *)

(* The classic SMR bug, planted on purpose: the reader dereferences a
   node it read from shared memory WITHOUT an enter/leave bracket, so
   nothing stops the writer from retiring and freeing it in between.
   The lifecycle auditor turns the dereference into Use_after_free. *)
let buggy_program : Explore.program =
 fun () ->
  let t =
    Ebr.create
      { Smr.Smr_intf.default_config with max_threads = 2; batch_size = 2 }
  in
  let shared = Cell.make None in
  let writer () =
    let g = Ebr.enter t in
    let n = Ebr.alloc t 42 in
    Cell.set shared (Some n);
    Cell.set shared None;
    (* unlinked: retire, leave, and force reclamation *)
    Ebr.retire t g n;
    Ebr.leave t g;
    Ebr.flush t
  in
  let reader () =
    match Cell.get shared with
    | Some n ->
        (* one more traversal step before the dereference: the window in
           which the writer can free [n] under the reader's feet *)
        ignore (Cell.get shared);
        ignore (Ebr.data n)
    | None -> ()
  in
  ([ writer; reader ], fun () -> true)

let find_violation name outcome =
  match outcome with
  | Explore.Violation { schedule; message } -> (schedule, message)
  | Explore.Exhausted n | Explore.Limit_reached n ->
      Alcotest.fail
        (Printf.sprintf "%s missed the injected use-after-free (%d runs)"
           name n)

let check_is_uaf name message =
  let lower = String.lowercase_ascii message in
  let contains sub =
    let n = String.length sub and m = String.length lower in
    let rec go i = i + n <= m && (String.sub lower i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    (name ^ ": auditor named the bug (" ^ message ^ ")")
    true
    (contains "use_after_free" || contains "use after free")

let test_injected_bug_fuzz_and_shrink () =
  (* All three modes find it — randomized modes are the satellite's
     point, DFS doubles as the ground truth. *)
  let _, dfs_message =
    find_violation "dfs" (Explore.check ~limit:10_000 buggy_program)
  in
  check_is_uaf "dfs" dfs_message;
  (* PCT needs both its change points in the right place (depth-3 bug),
     so give it a real budget; the walks are a few dozen steps each. *)
  let _, pct_message =
    find_violation "pct"
      (Explore.explore
         ~mode:(Explore.Pct { walks = 4096; change_points = 2 })
         ~seed:1 buggy_program)
  in
  check_is_uaf "pct" pct_message;
  let schedule, message =
    find_violation "random-walk"
      (Explore.explore
         ~mode:(Explore.Random_walk { walks = 4096 })
         ~seed:1 buggy_program)
  in
  check_is_uaf "random-walk" message;
  (* Shrink the fuzz-found schedule: still the same failure, and small
     enough to read off by hand. *)
  let shrunk = Explore.shrink buggy_program schedule in
  Alcotest.(check bool)
    (Printf.sprintf "shrunk to <= 20 decisions (got %d)"
       (List.length shrunk))
    true
    (List.length shrunk <= 20);
  Alcotest.(check bool) "shrunk no longer than original" true
    (List.length shrunk <= List.length schedule);
  match Explore.replay_outcome buggy_program shrunk with
  | Ok () -> Alcotest.fail "shrunk schedule no longer fails"
  | Error m ->
      Alcotest.(check string) "shrunk replays to same failure" message m

(* The violation survives a round trip through the trace-file format:
   serialize, parse, replay the parsed schedule, same failure. *)
let test_trace_file_replay () =
  let schedule, message =
    find_violation "dfs" (Explore.check ~limit:10_000 buggy_program)
  in
  let shrunk = Explore.shrink buggy_program schedule in
  let trace =
    {
      Trace_file.meta =
        [ ("scheme", "Epoch"); ("note", "injected reader-without-guard") ];
      faults = [];
      schedule = shrunk;
      message;
    }
  in
  let path = Filename.temp_file "hyaline_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_file.save ~path trace;
      let loaded = Trace_file.load ~path in
      Alcotest.(check (list (pair string string)))
        "meta survives" trace.Trace_file.meta loaded.Trace_file.meta;
      Alcotest.(check (list int))
        "schedule survives" shrunk loaded.Trace_file.schedule;
      Alcotest.(check string)
        "message survives" message loaded.Trace_file.message;
      match
        Explore.replay_outcome buggy_program loaded.Trace_file.schedule
      with
      | Ok () -> Alcotest.fail "loaded trace does not reproduce"
      | Error m ->
          Alcotest.(check string) "loaded trace reproduces the failure"
            loaded.Trace_file.message m)

(* Trace parsing round-trips faults and multi-line messages too. *)
let test_trace_file_format () =
  let trace =
    {
      Trace_file.meta = [ ("scheme", "HP"); ("note", "spaces are fine") ];
      faults =
        [
          Explore.stall_at ~victim:0 ~at:24 ();
          Explore.stall_at ~resume_at:24 ~victim:1 ~at:1 ();
          Explore.kill_at ~victim:2 ~at:3 ();
        ];
      schedule = [ 0; 1; 2; 0; 1 ];
      message = "first line\nsecond line";
    }
  in
  let trace' = Trace_file.of_string (Trace_file.to_string trace) in
  Alcotest.(check bool) "full round trip" true (trace = trace');
  (match Trace_file.of_string "not a trace" with
  | _ -> Alcotest.fail "bad magic accepted"
  | exception Trace_file.Parse_error _ -> ());
  match Trace_file.of_string (Trace_file.magic ^ "\nbogus line here") with
  | _ -> Alcotest.fail "unknown line kind accepted"
  | exception Trace_file.Parse_error _ -> ()

let suite =
  [
    Alcotest.test_case "conformance-matrix" `Quick test_matrix;
    Alcotest.test_case "robustness-probes" `Quick test_robustness_probes;
    Alcotest.test_case "injected-bug-fuzz-shrink" `Quick
      test_injected_bug_fuzz_and_shrink;
    Alcotest.test_case "trace-file-replay" `Quick test_trace_file_replay;
    Alcotest.test_case "trace-file-format" `Quick test_trace_file_format;
  ]
