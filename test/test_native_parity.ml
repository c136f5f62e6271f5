(** The native side of the harness: {!Smr_harness.Native_workload} (real
    domains through the workload pipeline, watchdog guarding),
    {!Smr_runtime.Native_runtime} allocation accounting, and the
    {!Smr_harness.Parity} rank-agreement machinery. *)

module Registry = Smr_harness.Registry
module Plan = Smr_harness.Plan
module Executor = Smr_harness.Executor
module Workload = Smr_harness.Workload
module NW = Smr_harness.Native_workload
module Parity = Smr_harness.Parity
module Verdict = Smr_harness.Verdict
module Native = Smr_runtime.Native_runtime

let small_spec ~threads ~ops =
  {
    NW.default_spec with
    NW.threads;
    ops_per_thread = ops;
    key_range = 64;
    prefill = 16;
  }

let scheme_exn name =
  match Registry.Native.scheme_of_name name with
  | Some m -> m
  | None -> Alcotest.failf "unknown scheme %s" name

(* -- matrix smoke ---------------------------------------------------------- *)

(* Every result must satisfy the quiescence identities: the reported
   [unreclaimed] is exactly retired - freed, the metrics snapshot agrees
   with the stats view, every allocation went through
   [Native_runtime.alloc_point], and after the final flush a reclaiming
   scheme has drained everything while Leaky has freed nothing. *)
let check_result ~scheme ~where (r : NW.result) =
  let ctx = where ^ "/" ^ scheme in
  let m = r.NW.metrics in
  Alcotest.(check int)
    (ctx ^ ": unreclaimed = retired - freed")
    (r.NW.final.Smr.Smr_intf.retired - r.NW.final.Smr.Smr_intf.freed)
    r.NW.unreclaimed;
  Alcotest.(check int)
    (ctx ^ ": metrics agree with stats (retired)")
    r.NW.final.Smr.Smr_intf.retired m.Smr.Metrics.retired;
  Alcotest.(check int)
    (ctx ^ ": metrics agree with stats (freed)")
    r.NW.final.Smr.Smr_intf.freed m.Smr.Metrics.freed;
  Alcotest.(check int)
    (ctx ^ ": every alloc crossed alloc_point")
    r.NW.final.Smr.Smr_intf.allocated r.NW.allocs;
  Alcotest.(check bool)
    (ctx ^ ": alloc bytes accounted") true
    (r.NW.alloc_bytes >= r.NW.allocs);
  Alcotest.(check bool)
    (ctx ^ ": peak covers final unreclaimed") true
    (m.Smr.Metrics.peak_unreclaimed >= r.NW.unreclaimed);
  if String.equal scheme "Leaky" then begin
    Alcotest.(check int) (ctx ^ ": Leaky frees nothing") 0
      r.NW.final.Smr.Smr_intf.freed;
    Alcotest.(check int)
      (ctx ^ ": Leaky leaks every retirement")
      r.NW.final.Smr.Smr_intf.retired r.NW.unreclaimed
  end
  else
    Alcotest.(check int)
      (ctx ^ ": quiescent flush drained everything")
      0 r.NW.unreclaimed

(* Every supported (scheme, structure) pair on 2 domains. *)
let test_matrix_smoke_2_domains () =
  let spec = { NW.default_spec with NW.threads = 2; ops_per_thread = 150 } in
  let cells =
    List.concat_map
      (fun structure ->
        List.filter_map
          (fun name ->
            if Registry.supported structure name then Some (structure, name)
            else None)
          Registry.every_scheme_name)
      Registry.structures
  in
  Alcotest.(check int) "full supported matrix covered" 89 (List.length cells);
  List.iter
    (fun (structure, name) ->
      let where = Registry.structure_name structure in
      match NW.run_guarded ~timeout_s:120.0 ~scheme:name ~structure spec with
      | Ok res -> check_result ~scheme:name ~where res
      | Error msg -> Alcotest.failf "%s/%s failed: %s" name where msg)
    cells

let test_matrix_smoke_4_domains () =
  (* A 4-domain column of the matrix: every scheme on the hash map. *)
  let spec = small_spec ~threads:4 ~ops:150 in
  List.iter
    (fun name ->
      match
        NW.run_guarded ~timeout_s:120.0 ~scheme:name
          ~structure:Registry.Hashmap spec
      with
      | Ok res ->
          Alcotest.(check int)
            (name ^ ": all ops performed") (4 * 150) res.NW.ops;
          check_result ~scheme:name ~where:"hashmap@4" res
      | Error msg -> Alcotest.failf "%s on 4 domains failed: %s" name msg)
    Registry.every_scheme_name

(* -- allocation accounting (Native_runtime.alloc_point) ------------------- *)

let test_alloc_point_counts () =
  let a0, b0 = Native.alloc_stats () in
  for _ = 1 to 5 do
    Native.alloc_point ~bytes:16
  done;
  Native.alloc_point ~bytes:3;
  let a1, b1 = Native.alloc_stats () in
  Alcotest.(check int) "six allocation events" 6 (a1 - a0);
  Alcotest.(check int) "83 bytes accounted" 83 (b1 - b0)

let test_alloc_point_in_workload () =
  (* Single-domain run: fully deterministic, so the workload-level
     accounting must agree exactly with the scheme's lifecycle counter
     and cover at least the prefill. *)
  let spec = small_spec ~threads:1 ~ops:400 in
  let set = Registry.Native.make_set Registry.List_set (scheme_exn "Epoch") in
  let r = NW.run set spec in
  Alcotest.(check int) "alloc_point calls = allocated nodes"
    r.NW.final.Smr.Smr_intf.allocated r.NW.allocs;
  Alcotest.(check bool) "at least the prefill allocated" true
    (r.NW.allocs >= spec.NW.prefill);
  Alcotest.(check bool) "bytes accumulate" true (r.NW.alloc_bytes > 0)

(* -- watchdog -------------------------------------------------------------- *)

(* The library's infinite-loop dummy scheme, injected through the named
   cell protocol: the watchdog must turn it into [Error "timeout"]
   instead of hanging the suite. *)
let test_watchdog_kills_livelock () =
  let t0 = Unix.gettimeofday () in
  match
    NW.run_guarded ~timeout_s:1.0 ~scheme:NW.livelock_scheme_name
      ~structure:Registry.List_set
      (small_spec ~threads:2 ~ops:50)
  with
  | Ok _ -> Alcotest.fail "livelocked scheme reported success"
  | Error msg ->
      Alcotest.(check string) "failure row says timeout" "timeout" msg;
      Alcotest.(check bool) "killed promptly, not after a hang" true
        (Unix.gettimeofday () -. t0 < 30.0)

let test_watchdog_ok_path () =
  let spec = small_spec ~threads:1 ~ops:200 in
  let set = Registry.Native.make_set Registry.List_set (scheme_exn "Epoch") in
  let direct = NW.run set spec in
  match
    NW.run_guarded ~timeout_s:60.0 ~scheme:"Epoch"
      ~structure:Registry.List_set spec
  with
  | Error msg -> Alcotest.failf "guarded run failed: %s" msg
  | Ok guarded ->
      (* Same deterministic single-domain run, so everything except wall
         time survives the fork + pipe round trip unchanged. *)
      Alcotest.(check int) "ops round-trip" direct.NW.ops guarded.NW.ops;
      Alcotest.(check int) "allocated round-trip"
        direct.NW.final.Smr.Smr_intf.allocated
        guarded.NW.final.Smr.Smr_intf.allocated;
      Alcotest.(check int) "retired round-trip"
        direct.NW.final.Smr.Smr_intf.retired
        guarded.NW.final.Smr.Smr_intf.retired;
      Alcotest.(check int) "unreclaimed round-trip" direct.NW.unreclaimed
        guarded.NW.unreclaimed

let test_watchdog_error_path () =
  (* prefill > key_range cannot converge; the child's invalid_arg must
     come back as an [Error], not a crash. *)
  let spec =
    { (small_spec ~threads:1 ~ops:10) with NW.prefill = 100; key_range = 8 }
  in
  match
    NW.run_guarded ~timeout_s:60.0 ~scheme:"Epoch"
      ~structure:Registry.List_set spec
  with
  | Ok _ -> Alcotest.fail "non-convergent prefill reported success"
  | Error msg ->
      Alcotest.(check bool) ("error names the cause: " ^ msg) true
        (String.length msg > 0)

(* -- rank agreement -------------------------------------------------------- *)

let test_kendall_tau () =
  let check name expect xs ys =
    Alcotest.(check (float 1e-9)) name expect (Parity.kendall_tau xs ys)
  in
  check "identical order" 1.0 [ 3.0; 2.0; 1.0 ] [ 30.0; 20.0; 10.0 ];
  check "reversed order" (-1.0) [ 1.0; 2.0; 3.0 ] [ 30.0; 20.0; 10.0 ];
  check "one swap of four" (2.0 /. 3.0)
    [ 4.0; 3.0; 2.0; 1.0 ]
    [ 40.0; 30.0; 10.0; 20.0 ];
  check "degenerate" 0.0 [ 1.0 ] [ 2.0 ]

let row ~scheme ~sim ~native ~sim_peak ~native_peak =
  {
    Parity.r_scheme = scheme;
    r_sim_tput = sim;
    r_native_ops_s = native;
    r_sim_peak = sim_peak;
    r_native_peak = native_peak;
  }

let agreeing_rows =
  [
    row ~scheme:"Leaky" ~sim:30.0 ~native:3000.0 ~sim_peak:900 ~native_peak:800;
    row ~scheme:"Epoch" ~sim:25.0 ~native:2500.0 ~sim_peak:100 ~native_peak:90;
    row ~scheme:"Hyaline" ~sim:20.0 ~native:2000.0 ~sim_peak:40 ~native_peak:30;
  ]

let test_judge_agrees () =
  let sp = Parity.structure_parity ~structure:Registry.Hashmap agreeing_rows in
  Alcotest.(check (float 1e-9)) "perfect ordering" 1.0 sp.Parity.s_tau;
  Alcotest.(check bool) "Leaky tops both peaks" true sp.Parity.s_peak_ok;
  let v = Parity.judge [ sp ] in
  Alcotest.(check bool) "verdict agrees" true v.Verdict.ok

let test_judge_rejects_inverted_ranks () =
  let inverted =
    List.map
      (fun r ->
        { r with Parity.r_native_ops_s = 10_000.0 -. r.Parity.r_native_ops_s })
      agreeing_rows
  in
  let v =
    Parity.judge [ Parity.structure_parity ~structure:Registry.Hashmap inverted ]
  in
  Alcotest.(check bool) "anti-correlated throughput fails" false
    v.Verdict.ok

let test_judge_rejects_leaky_not_topping () =
  let bad =
    List.map
      (fun r ->
        if String.equal r.Parity.r_scheme "Epoch" then
          { r with Parity.r_native_peak = 5_000 }
        else r)
      agreeing_rows
  in
  let v =
    Parity.judge [ Parity.structure_parity ~structure:Registry.Hashmap bad ]
  in
  Alcotest.(check bool) "peak anchor broken on native side" false
    v.Verdict.ok;
  Alcotest.(check bool) "empty matrix never agrees" false
    (Parity.judge []).Verdict.ok

(* Coverage is the ladder's "no scheme silently dropped" check: a pair
   without a row fails it, named with the error that dropped it. *)
let test_ladder_coverage () =
  let ladder ?(drop = []) structure =
    let keep s = not (List.mem s drop) in
    Parity.structure_parity ~structure
      ~failed:
        (List.map (fun s -> (s, "native: Use_after_free(\"HP: data\")")) drop)
      (List.filter_map
         (fun s ->
           if keep s then
             Some
               (row ~scheme:s ~sim:20.0 ~native:2000.0 ~sim_peak:40
                  ~native_peak:30)
           else None)
         Parity.ladder_schemes)
  in
  let full = List.map ladder Parity.ladder_structures in
  let _, ok, detail = Parity.coverage full in
  Alcotest.(check bool) ("full ladder covered: " ^ detail) true ok;
  let no_hp =
    List.map
      (fun s ->
        if s = Registry.Hashmap then ladder ~drop:[ "HP" ] s else ladder s)
      Parity.ladder_structures
  in
  let _, ok, detail = Parity.coverage no_hp in
  Alcotest.(check bool) "ladder missing HP fails" false ok;
  Alcotest.(check string) "names the pair and its error"
    "missing: hashmap: HP (native: Use_after_free(\"HP: data\"))" detail;
  let _, ok, detail =
    Parity.coverage
      (List.filter
         (fun s -> s.Parity.s_structure <> Registry.List_set)
         full)
  in
  Alcotest.(check bool) "ladder missing a structure fails" false ok;
  Alcotest.(check string) "names each of its pairs"
    ("missing: "
    ^ String.concat ", " (List.map (( ^ ) "list: ") Parity.ladder_schemes))
    detail

(* The pinned small matrix, for real: Leaky / Epoch / Hyaline on the hash
   map, simulator vs native. Only the count-based half of the verdict is
   asserted — throughput ranks are wall-clock and belong to the (noisier)
   check.sh smoke, not the unit suite. *)
let test_pinned_parity_verdict () =
  let schemes = [ "Leaky"; "Epoch"; "Hyaline" ] in
  let rows =
    List.map
      (fun name ->
        let sim =
          match
            Executor.run_cell
              (Plan.cell ~scheme:name ~structure:Registry.Hashmap ~threads:2
                 ~budget:20_000 ())
          with
          | Executor.Done r -> r
          | Executor.Failed m -> Alcotest.failf "sim %s failed: %s" name m
        in
        let native =
          match
            NW.run_guarded ~timeout_s:120.0 ~scheme:name
              ~structure:Registry.Hashmap
              (small_spec ~threads:2 ~ops:2_000)
          with
          | Ok r -> r
          | Error m -> Alcotest.failf "native %s failed: %s" name m
        in
        row ~scheme:name ~sim:sim.Workload.throughput
          ~native:native.NW.ops_per_sec
          ~sim_peak:sim.Workload.metrics.Smr.Metrics.peak_unreclaimed
          ~native_peak:native.NW.metrics.Smr.Metrics.peak_unreclaimed)
      schemes
  in
  let sp = Parity.structure_parity ~structure:Registry.Hashmap rows in
  Alcotest.(check bool)
    "Leaky tops peak-unreclaimed on sim and native" true sp.Parity.s_peak_ok;
  Alcotest.(check int) "all schemes measured" (List.length schemes)
    (List.length sp.Parity.s_rows)

(* -- report round trip ----------------------------------------------------- *)

let test_native_result_round_trip () =
  let spec = small_spec ~threads:2 ~ops:200 in
  let set = Registry.Native.make_set Registry.Hashmap (scheme_exn "Hyaline") in
  let r = NW.run set spec in
  let j = NW.result_to_json r in
  let r' = NW.result_of_json j in
  Alcotest.(check string) "result_to_json . result_of_json = id"
    (Smr_harness.Json.to_string j)
    (Smr_harness.Json.to_string (NW.result_to_json r'))

let suite =
  [
    Alcotest.test_case "matrix-smoke-2-domains" `Quick
      test_matrix_smoke_2_domains;
    Alcotest.test_case "matrix-smoke-4-domains" `Quick
      test_matrix_smoke_4_domains;
    Alcotest.test_case "alloc-point-counts" `Quick test_alloc_point_counts;
    Alcotest.test_case "alloc-point-in-workload" `Quick
      test_alloc_point_in_workload;
    Alcotest.test_case "watchdog-kills-livelock" `Quick
      test_watchdog_kills_livelock;
    Alcotest.test_case "watchdog-ok-path" `Quick test_watchdog_ok_path;
    Alcotest.test_case "watchdog-error-path" `Quick test_watchdog_error_path;
    Alcotest.test_case "kendall-tau" `Quick test_kendall_tau;
    Alcotest.test_case "judge-agrees" `Quick test_judge_agrees;
    Alcotest.test_case "judge-rejects-inverted-ranks" `Quick
      test_judge_rejects_inverted_ranks;
    Alcotest.test_case "judge-rejects-leaky-not-topping" `Quick
      test_judge_rejects_leaky_not_topping;
    Alcotest.test_case "ladder-coverage" `Quick test_ladder_coverage;
    Alcotest.test_case "pinned-parity-verdict" `Quick
      test_pinned_parity_verdict;
    Alcotest.test_case "native-result-round-trip" `Quick
      test_native_result_round_trip;
  ]
