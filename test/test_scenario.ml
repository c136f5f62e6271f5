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

(* -- footprint ------------------------------------------------------------ *)

let test_footprint_judge () =
  let judge = Scenario.judge_footprint in
  passes "2.5x contrast" (judge [ ("Epoch", 250_000); ("Hyaline-S", 100_000) ]);
  passes "exactly 2x" (judge [ ("Epoch", 200_000); ("Hyaline-S", 100_000) ]);
  fails_only "1.9x" "robust_contrast"
    (judge [ ("Epoch", 190_000); ("Hyaline-S", 100_000) ]);
  fails_only "empty Hyaline-S" "robust_contrast"
    (judge [ ("Epoch", 190_000); ("Hyaline-S", 0) ]);
  fails_only "missing series" "robust_contrast" (judge [ ("Epoch", 190_000) ])

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

(* -- waitfree ------------------------------------------------------------- *)

let probe ~ok =
  {
    Verify.wf_steps =
      [ { Verify.s_scheme = "Crystalline-W"; s_costs = []; s_bounded = true } ];
    wf_stall = [];
    wf_kill = [];
    wf_ok = ok;
    wf_bound = 72;
  }

let test_waitfree_judge () =
  let residents w = [ ("Epoch", 333_056); ("Crystalline-W", w) ] in
  let judge = Scenario.judge_waitfree in
  passes "plateau and probes" (judge (residents 79_616) (probe ~ok:true));
  fails_only "Crystalline-W leaks" "plateau"
    (judge (residents 200_000) (probe ~ok:true));
  fails_only "probe ladder broken" "probes"
    (judge (residents 79_616) (probe ~ok:false))

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
    Alcotest.test_case "footprint-judge" `Quick test_footprint_judge;
    Alcotest.test_case "churn-judge" `Quick test_churn_judge;
    Alcotest.test_case "service-judge" `Quick test_service_judge;
    Alcotest.test_case "waitfree-judge" `Quick test_waitfree_judge;
    Alcotest.test_case "envelope-round-trip" `Quick test_envelope_round_trip;
    Alcotest.test_case "run-writes-nested-dir" `Quick
      test_run_writes_nested_dir;
  ]
