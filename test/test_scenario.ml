(** The verdict scenarios' judges as pure functions over synthetic rows —
    no simulation. For each judge: one input on which every check passes,
    and for each check one input on which that check alone fails, so a
    judge that always answered [ok] (or never did) cannot go unnoticed.
    Plus the artifact envelope's round trip, and the driver writing one
    artifact end to end. *)

module Scenario = Smr_harness.Scenario
module Verdict = Smr_harness.Verdict
module Workload = Smr_harness.Workload
module Verify = Smr_harness.Verify
module Json = Smr_harness.Json
module Executor = Smr_harness.Executor

let failed (v : Verdict.t) =
  List.filter_map (fun (n, b, _) -> if b then None else Some n) v.Verdict.checks

let passes what v =
  Alcotest.(check (list string)) (what ^ ": no check fails") [] (failed v);
  Alcotest.(check bool) (what ^ ": verdict ok") true v.Verdict.ok

let fails_only what check v =
  Alcotest.(check (list string)) (what ^ ": only " ^ check ^ " fails")
    [ check ] (failed v);
  Alcotest.(check bool) (what ^ ": verdict fails") false v.Verdict.ok

(* -- micro ---------------------------------------------------------------- *)

let micro_runs ?(override = fun r -> r) () =
  List.concat_map
    (fun s -> List.map override [ (s, [ ("scans", 3) ]); (s, [ ("scans", 9) ]) ])
    Scenario.micro_schemes

let test_micro_judge () =
  let judge = Scenario.judge_micro in
  passes "every scheme, every series" (judge (micro_runs ()));
  fails_only "HE missing" "coverage"
    (judge (List.filter (fun (s, _) -> s <> "HE") (micro_runs ())));
  fails_only "Leaky without a series" "series"
    (judge
       (micro_runs
          ~override:(fun (s, series) ->
            if s = "Leaky" then (s, []) else (s, series))
          ()))

(* -- churn ---------------------------------------------------------------- *)

let churn_row ?(events = 400) ?(backlog = 0) scheme micro =
  {
    Scenario.scheme;
    micro;
    tput_ratio = 1.0;
    stats =
      {
        Workload.c_joins = events / 2;
        c_leaves = events / 2;
        c_session_ops = 0;
        c_reuses = 0;
        c_avg_reuse_latency = 0.0;
        c_orphaned = backlog;
        c_adopted = 0;
        c_orphan_backlog = backlog;
      };
  }

let churn_rows ?(override = fun r -> r) () =
  List.map override
    [
      churn_row "Epoch" 8.0;
      churn_row "HP" 64.0;
      churn_row "HE" 64.0;
      churn_row "IBR" 16.0;
      churn_row "Hyaline-1" 0.0;
      churn_row "Hyaline" 0.0;
    ]

let test_churn_judge () =
  let judge = Scenario.judge_churn in
  let with_row name f =
    churn_rows
      ~override:(fun r -> if r.Scenario.scheme = name then f r else r)
      ()
  in
  passes "all schemes, 2400 events" (judge (churn_rows ()));
  fails_only "Hyaline pays" "transparent_zero"
    (judge (with_row "Hyaline" (fun r -> { r with Scenario.micro = 0.5 })));
  fails_only "HP free" "registration_pays"
    (judge (with_row "HP" (fun r -> { r with Scenario.micro = 0.0 })));
  fails_only "registration scheme missing" "registration_pays"
    (judge
       (List.filter (fun r -> r.Scenario.scheme <> "HE") (churn_rows ())));
  fails_only "1998 events" "churn_events"
    (judge
       (churn_rows
          ~override:(fun r ->
            churn_row ~events:(if r.Scenario.scheme = "Epoch" then 398 else 320)
              r.Scenario.scheme r.Scenario.micro)
          ()));
  fails_only "orphan leak" "orphan_backlog"
    (judge
       (with_row "IBR" (fun r -> churn_row ~backlog:3 "IBR" r.Scenario.micro)))

(* -- service -------------------------------------------------------------- *)

let budget = 600_000

let sample at resident =
  { Workload.s_at = at; s_resident = resident; s_unreclaimed = 0 }

let healthy label =
  {
    (Scenario.failed_row label "") with
    Scenario.error = None;
    served = 5_000;
    sojourn_p999 = 4_000.0;
    resident_final = 40_000;
    timeline = [ sample (budget / 2) 35_000 ];
  }

let service_rows ?(override = fun r -> r) () =
  List.map override
    [
      Scenario.failed_row "Epoch" "OOM: budget exhausted";
      healthy "HP";
      healthy "HE";
      healthy "IBR";
      healthy "Hyaline";
      {
        (healthy "Hyaline-S") with
        Scenario.served = 7_446;
        sojourn_p999 = 6_466.0;
        resident_final = 90_240;
        timeline = [ sample 150_000 60_000; sample (budget / 2) 79_616 ];
      };
    ]

let test_service_judge () =
  let judge rows = Scenario.judge_service ~budget rows in
  let with_row label f =
    service_rows
      ~override:(fun r -> if r.Scenario.label = label then f r else r)
      ()
  in
  let hs f = with_row "Hyaline-S" f in
  passes "Epoch OOMs" (judge (service_rows ()));
  passes "Epoch diverges"
    (judge
       (with_row "Epoch" (fun _ ->
            { (healthy "Epoch") with Scenario.resident_final = 180_480 })));
  fails_only "HP missing" "coverage"
    (judge
       (List.filter (fun r -> r.Scenario.label <> "HP") (service_rows ())));
  fails_only "unsampled row" "timelines"
    (judge (with_row "IBR" (fun r -> { r with Scenario.timeline = [] })));
  fails_only "served nothing" "kept_serving"
    (judge (hs (fun r -> { r with Scenario.served = 0 })));
  fails_only "p999 over budget/50" "tail_bounded"
    (judge (hs (fun r -> { r with Scenario.sojourn_p999 = 12_001.0 })));
  fails_only "resident kept growing" "plateaued"
    (judge (hs (fun r -> { r with Scenario.resident_final = 159_233 })));
  fails_only "Epoch bounded" "epoch_diverged"
    (judge
       (with_row "Epoch" (fun _ ->
            { (healthy "Epoch") with Scenario.resident_final = 180_479 })))

(* -- robustness ------------------------------------------------------------ *)

(* The committed sweep's final resident bytes, one per series. *)
let residents =
  [
    ("Epoch", 333_056);
    ("Epoch-nostall", 22_912);
    ("IBR", 40_960);
    ("HP", 24_576);
    ("Hyaline", 310_784);
    ("Hyaline-S", 94_080);
    ("Hyaline-1S", 77_184);
    ("Crystalline-L", 77_184);
    ("Crystalline-W", 79_616);
  ]

(* The committed probe rows, with one scheme's flag or peak overridden. *)
let faults ?(robust = fun _ r -> r) ?(peak = fun _ p -> p) () =
  List.map
    (fun (s, r, p) ->
      {
        Verify.r_scheme = s;
        r_robust = robust s r;
        r_peak = peak s p;
        r_retired = 320;
      })
    [
      ("Epoch", false, 320);
      ("IBR", true, 29);
      ("HE", true, 30);
      ("HP", true, 16);
      ("Hyaline", false, 312);
      ("Hyaline-1", false, 312);
      ("Hyaline-S", true, 32);
      ("Hyaline-1S", true, 32);
      ("Crystalline-L", true, 32);
      ("Crystalline-W", true, 32);
      ("Hyaline/llsc", false, 320);
      ("Hyaline-S/llsc", true, 32);
    ]

let steps ?(bounded = fun _ b -> b) () =
  List.map
    (fun (s, b) ->
      { Verify.s_scheme = s; s_costs = [ (512, 1) ]; s_bounded = bounded s b })
    [
      ("Epoch", true);
      ("Hyaline-1S", false);
      ("Crystalline-L", false);
      ("Crystalline-W", true);
    ]

let probes ?(stall = faults ()) ?(kill = faults ()) ?(steps = steps ()) () =
  { Scenario.faults = List.combine stall kill; steps }

let judge = Scenario.judge_robustness
let set l v = List.map (fun (l', r) -> (l', if l' = l then v else r))

(* The robustness judge's memory check: stalled Epoch's resident bytes
   against every robust series the sweep plans, none of them missing. *)
let test_footprint_judge () =
  passes "committed shape" (judge residents (probes ()));
  passes "exactly 2x" (judge (set "Hyaline-S" 166_528 residents) (probes ()));
  fails_only "Crystalline-W leaks" "contrast"
    (judge (set "Crystalline-W" 166_529 residents) (probes ()));
  fails_only "empty HP" "contrast" (judge (set "HP" 0 residents) (probes ()));
  fails_only "missing series" "contrast"
    (judge (List.remove_assoc "Hyaline-S" residents) (probes ()));
  fails_only "missing Crystalline-L" "contrast"
    (judge (List.remove_assoc "Crystalline-L" residents) (probes ()));
  fails_only "missing Epoch" "contrast"
    (judge (List.remove_assoc "Epoch" residents) (probes ()))

(* The robustness judge's fault check: each reclaiming scheme probed, its
   stall and kill peaks on its own flag's side of the bound. *)
let test_robustness_judge () =
  passes "committed shape" (judge residents (probes ()));
  let epoch_robust = faults ~robust:(fun s r -> r || s = "Epoch") () in
  fails_only "Epoch claims robustness" "fault_peaks"
    (judge residents (probes ~stall:epoch_robust ~kill:epoch_robust ()));
  fails_only "killed Hyaline-S past the bound" "fault_peaks"
    (judge residents
       (probes
          ~kill:(faults ~peak:(fun s p -> if s = "Hyaline-S" then 73 else p) ())
          ()));
  fails_only "stalled Hyaline within twice the bound" "fault_peaks"
    (judge residents
       (probes
          ~stall:(faults ~peak:(fun s p -> if s = "Hyaline" then 144 else p) ())
          ()));
  let probed = List.filter (fun r -> r.Verify.r_scheme <> "Hyaline-S") in
  fails_only "Hyaline-S unprobed" "fault_peaks"
    (judge residents
       (probes ~stall:(probed (faults ())) ~kill:(probed (faults ())) ()))

(* The robustness judge's step check: the reader's cost per operation flat
   for Epoch and Crystalline-W, growing for Crystalline-L and Hyaline-1S. *)
let test_waitfree_judge () =
  passes "committed shape" (judge residents (probes ()));
  fails_only "Crystalline-L flat" "steps"
    (judge residents
       (probes
          ~steps:(steps ~bounded:(fun s b -> b || s = "Crystalline-L") ())
          ()));
  fails_only "Crystalline-W grows" "steps"
    (judge residents
       (probes
          ~steps:(steps ~bounded:(fun s b -> b && s <> "Crystalline-W") ())
          ()))

(* -- the envelope --------------------------------------------------------- *)

let test_envelope_round_trip () =
  let verdict =
    Verdict.of_checks
      [
        ("contrast", true, "Epoch 333056B vs \"Hyaline-S\" 94080B");
        ("backlog", false, "3 orphaned\nretirees");
      ]
  in
  let body = Json.Obj [ ("rows", Json.List [ Json.Int 1 ]) ] in
  let text = Json.to_string (Scenario.to_json ~kind:"churn" verdict body) in
  let kind, verdict', body' = Scenario.of_json (Json.of_string text) in
  Alcotest.(check string) "kind" "churn" kind;
  Alcotest.(check bool) "verdict" true (verdict = verdict');
  Alcotest.(check bool) "failing verdict stays failing" false
    verdict'.Verdict.ok;
  Alcotest.(check string) "body" (Json.to_string body) (Json.to_string body');
  Alcotest.(check bool) "no checks never holds" false
    (Verdict.of_checks []).Verdict.ok;
  let future =
    Json.Obj
      [
        ("schema_version", Json.Int (Scenario.schema_version + 1));
        ("kind", Json.String "churn");
        ("verdict", Verdict.to_json verdict);
        ("body", body);
      ]
  in
  match Scenario.of_json future with
  | _ -> Alcotest.fail "an unsupported schema_version was accepted"
  | exception Json.Parse_error _ -> ()

(* -- the driver ----------------------------------------------------------- *)

(* [-o DIR] creates missing parents, and the artifact it writes reads back
   as a whole envelope with nothing left beside it. *)
let test_run_writes_nested_dir () =
  let root = Filename.temp_file "hyaline_scenario" "" in
  Sys.remove root;
  let dir = Filename.concat (Filename.concat root "a") "b" in
  let path = Filename.concat dir "BENCH_micro.json" in
  let quiet = Format.make_formatter (fun _ _ _ -> ()) ignore in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      List.iter
        (fun d -> if Sys.file_exists d then Sys.rmdir d)
        [ dir; Filename.dirname dir; root ])
    (fun () ->
      let ok =
        Scenario.run ~out:dir quiet
          {
            Scenario.scale = Smr_harness.Plan.Quick;
            domains = None;
            cache = None;
            on_progress = None;
          }
          (Scenario.Any Scenario.micro)
      in
      Alcotest.(check bool) "micro verdict holds" true ok;
      Alcotest.(check (list string)) "only the artifact is left"
        [ "BENCH_micro.json" ]
        (Array.to_list (Sys.readdir dir));
      let kind, verdict, body =
        Scenario.of_json (Json.of_string (Executor.read_file path))
      in
      Alcotest.(check string) "kind" "micro" kind;
      Alcotest.(check bool) "re-read verdict" true verdict.Verdict.ok;
      Alcotest.(check int) "one run per bench scheme and thread count"
        (2 * List.length Scenario.micro_schemes)
        (List.length (Json.to_list (Json.member_exn "runs" body))))

let suite =
  [
    Alcotest.test_case "micro-judge" `Quick test_micro_judge;
    Alcotest.test_case "churn-judge" `Quick test_churn_judge;
    Alcotest.test_case "service-judge" `Quick test_service_judge;
    Alcotest.test_case "footprint-judge" `Quick test_footprint_judge;
    Alcotest.test_case "robustness-judge" `Quick test_robustness_judge;
    Alcotest.test_case "waitfree-judge" `Quick test_waitfree_judge;
    Alcotest.test_case "envelope-round-trip" `Quick test_envelope_round_trip;
    Alcotest.test_case "run-writes-nested-dir" `Quick
      test_run_writes_nested_dir;
  ]
