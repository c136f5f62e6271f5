(** The metrics subsystem: snapshot determinism, lifecycle invariants,
    quiescent-flush accounting, scheduler tracing, JSON and histograms. *)

open Test_support
module Metrics = Smr.Metrics
module Workload = Smr_harness.Workload
module Histogram = Smr_harness.Histogram
module Json = Smr_harness.Json

let small_spec =
  {
    Workload.default_spec with
    threads = 3;
    key_range = 256;
    prefill = 64;
    budget = 20_000;
    buckets = 64;
    cfg = test_cfg ~threads:4;
  }

let run_hashmap (module S : SMR) spec =
  let module Map = Smr_ds.Michael_hashmap.Make (S) in
  Workload.run (module Map) spec

(* -- satellite (b): the prefill guard ------------------------------------ *)

let test_prefill_guard () =
  let spec = { small_spec with key_range = 16; prefill = 17 } in
  match run_hashmap (module Hyaline) spec with
  | _ -> Alcotest.fail "prefill > key_range must be rejected"
  | exception Invalid_argument _ -> ()

(* -- determinism: fixed (spec, seed) => identical snapshots -------------- *)

let test_deterministic_snapshot () =
  List.iter
    (fun (name, s) ->
      let a = run_hashmap s small_spec in
      let b = run_hashmap s small_spec in
      Alcotest.(check int) (name ^ ": ops") a.Workload.ops b.Workload.ops;
      Alcotest.(check int) (name ^ ": steps") a.Workload.steps b.Workload.steps;
      Alcotest.(check bool)
        (name ^ ": metrics snapshots equal")
        true
        (Metrics.equal a.Workload.metrics b.Workload.metrics);
      Alcotest.(check (list int))
        (name ^ ": latency buckets equal")
        (Histogram.to_list a.Workload.latency)
        (Histogram.to_list b.Workload.latency))
    [
      ("hyaline", (module Hyaline : SMR));
      ("epoch", (module Ebr));
      ("hp", (module Hp));
    ]

(* -- lifecycle invariants over every scheme ------------------------------ *)

let test_peak_invariant () =
  List.iter
    (fun (name, s) ->
      let r = run_hashmap s small_spec in
      let m = r.Workload.metrics in
      let u = Metrics.unreclaimed m in
      Alcotest.(check bool)
        (name ^ ": peak >= final unreclaimed")
        true
        (m.Metrics.peak_unreclaimed >= u);
      Alcotest.(check bool)
        (name ^ ": peak >= max per-op sample")
        true
        (m.Metrics.peak_unreclaimed >= r.Workload.peak_unreclaimed);
      Alcotest.(check bool)
        (name ^ ": retired <= allocated")
        true
        (m.Metrics.retired <= m.Metrics.allocated);
      Alcotest.(check bool) (name ^ ": freed <= retired") true
        (m.Metrics.freed <= m.Metrics.retired);
      Alcotest.(check bool)
        (name ^ ": some scheme-specific series")
        true (m.Metrics.series <> []);
      (* The compatibility view must agree with the snapshot. *)
      let st = r.Workload.final in
      Alcotest.(check int)
        (name ^ ": stats view agrees")
        (Smr.Smr_intf.unreclaimed st) u)
    all_schemes

(* Retire under a guard, leave, flush: every reclaiming scheme must reach
   unreclaimed = 0 and report it through the snapshot; Leaky must free
   nothing and account for it in its [leaked] series. *)
let test_quiescent_flush () =
  let exercise (module S : SMR) =
    run_solo (fun () ->
        let t = S.create (test_cfg ~threads:4) in
        let g = S.enter t in
        for i = 1 to 40 do
          S.retire t g (S.alloc t i)
        done;
        let g = S.refresh t g in
        for i = 1 to 10 do
          S.retire t g (S.alloc t i)
        done;
        S.leave t g;
        S.flush t;
        S.metrics t)
  in
  List.iter
    (fun (name, s) ->
      let m = exercise s in
      (* Hyaline variants retire one extra control node per sealed batch,
         so only a lower bound is portable across schemes. *)
      Alcotest.(check bool)
        (name ^ ": retired at least the 50 nodes")
        true (m.Metrics.retired >= 50);
      Alcotest.(check int)
        (name ^ ": quiescent flush reclaims everything")
        0 (Metrics.unreclaimed m);
      Alcotest.(check bool)
        (name ^ ": peak saw the backlog")
        true
        (m.Metrics.peak_unreclaimed >= 1))
    reclaiming_schemes;
  let m = exercise (module Leaky) in
  Alcotest.(check int) "leaky: frees nothing" 0 m.Metrics.freed;
  Alcotest.(check (option int))
    "leaky: leaked series tracks unreclaimed"
    (Some (Metrics.unreclaimed m))
    (Metrics.series_value m "leaked")

(* -- scheduler event tracing --------------------------------------------- *)

let test_tracer_events () =
  let log = ref [] in
  let sched = Sched.create ~seed:7 () in
  Sched.set_tracer sched (Some (fun e -> log := e :: !log));
  for _ = 1 to 2 do
    ignore
      (Sched.spawn sched (fun () ->
           Sched.step 3;
           Sched.step 2))
  done;
  (match Sched.run sched with
  | Sched.All_finished -> ()
  | _ -> Alcotest.fail "fibers did not finish");
  let events = List.rev !log in
  let count p = List.length (List.filter p events) in
  Alcotest.(check int) "two spawns" 2
    (count (function Sched.Ev_spawn _ -> true | _ -> false));
  Alcotest.(check int) "four steps" 4
    (count (function Sched.Ev_step _ -> true | _ -> false));
  Alcotest.(check int) "two finishes" 2
    (count (function Sched.Ev_finish _ -> true | _ -> false));
  let at = function
    | Sched.Ev_spawn { at; _ }
    | Sched.Ev_step { at; _ }
    | Sched.Ev_stall { at; _ }
    | Sched.Ev_unstall { at; _ }
    | Sched.Ev_finish { at; _ }
    | Sched.Ev_suspend { at; _ }
    | Sched.Ev_resume { at; _ }
    | Sched.Ev_kill { at; _ }
    | Sched.Ev_join { at; _ }
    | Sched.Ev_leave { at; _ } -> at
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> at a <= at b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "timestamps monotone" true (monotone events);
  (* Removing the sink stops emission. *)
  Sched.set_tracer sched None;
  let before = List.length events in
  ignore (Sched.spawn sched (fun () -> Sched.step 1));
  ignore (Sched.run sched);
  Alcotest.(check int) "no events after removal" before (List.length !log)

let test_histogram () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 0; 1; 2; 3; 4; 7; 8; 1000; max_int ];
  Alcotest.(check int) "count" 9 (Histogram.count h);
  (* Rank 5 of 9 is the sample 4, which lives in bucket [4, 8). *)
  Alcotest.(check int) "p50 bound" 8 (Histogram.percentile h 50);
  Alcotest.(check int) "max" max_int h.Histogram.max;
  let h' = Histogram.of_list (Histogram.to_list h) in
  Alcotest.(check (list int))
    "to_list/of_list round trip" (Histogram.to_list h) (Histogram.to_list h');
  Alcotest.(check int) "count restored" 9 (Histogram.count h')

(* Edge cases: empty, single-sample, clamping, and the saturating
   catch-all top bucket. *)
let test_histogram_edges () =
  (* Empty: no samples means every percentile (and the mean) is 0. *)
  let h = Histogram.create () in
  Alcotest.(check int) "empty count" 0 (Histogram.count h);
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "empty p%d" p)
        0 (Histogram.percentile h p))
    [ 0; 50; 99; 100 ];
  Alcotest.(check (float 0.0)) "empty mean" 0.0 (Histogram.mean h);
  (* Single sample: every percentile reports that sample's bucket bound. *)
  let h = Histogram.create () in
  Histogram.add h 5;
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "single-sample p%d" p)
        8 (* 5 lives in bucket [4, 8) *)
        (Histogram.percentile h p))
    [ 1; 50; 100 ];
  Alcotest.(check int) "single-sample count" 1 (Histogram.count h);
  (* Negative samples clamp to zero (bucket 0, reported bound 1). *)
  let h = Histogram.create () in
  Histogram.add h (-3);
  Alcotest.(check int) "negative clamps to bucket 0" 1
    (Histogram.percentile h 100);
  Alcotest.(check int) "negative does not move max" 0 h.Histogram.max;
  (* The top bucket is a saturating catch-all: max_int lands there, the
     percentile reports its (finite) bound, and the exact max survives
     separately. *)
  let h = Histogram.create () in
  Histogram.add h max_int;
  Histogram.add h max_int;
  Alcotest.(check int) "top bucket count" 2 (Histogram.count h);
  Alcotest.(check int) "top bucket percentile = last bound" (1 lsl 23)
    (Histogram.percentile h 50);
  Alcotest.(check int) "exact max preserved" max_int h.Histogram.max;
  let buckets = Histogram.to_list h in
  Alcotest.(check int) "both samples in the last bucket" 2
    (List.nth buckets (List.length buckets - 1));
  (* of_list restores counts even for the saturated shape. *)
  let h' = Histogram.of_list buckets in
  Alcotest.(check int) "of_list count" 2 (Histogram.count h');
  Alcotest.(check int) "of_list percentile" (1 lsl 23)
    (Histogram.percentile h' 100)

(* The interpolated (p999-capable) percentile: empty, single-bucket and
   overflow-bucket shapes, monotonicity in p, and the max clamp that keeps
   the catch-all bucket from reporting values no sample reached. *)
let test_percentile_interp () =
  (* Empty histogram: 0.0 for every p. *)
  let h = Histogram.create () in
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "empty p%.1f" p)
        0.0
        (Histogram.percentile_interp h p))
    [ 0.0; 50.0; 99.9; 100.0 ];
  (* Single bucket: all mass in [4, 8) (samples of value 5), but the
     recorded max (5) tightens the interpolation's upper bound, so every
     quantile lands in [4, 5]. *)
  let h = Histogram.create () in
  for _ = 1 to 100 do
    Histogram.add h 5
  done;
  let p50 = Histogram.percentile_interp h 50.0 in
  let p999 = Histogram.percentile_interp h 99.9 in
  Alcotest.(check bool)
    (Printf.sprintf "single-bucket p50 in [4,5] (%.2f)" p50)
    true
    (p50 >= 4.0 && p50 <= 5.0);
  Alcotest.(check bool)
    (Printf.sprintf "single-bucket p999 in [4,5] (%.2f)" p999)
    true
    (p999 >= 4.0 && p999 <= 5.0);
  Alcotest.(check bool) "monotone in p" true (p999 >= p50);
  (* p999 resolves tail mass that the integer p99 cannot: 995 fast
     samples and 5 slow ones — p99 (rank 990) stays in the fast bucket,
     p999 (rank 999) reaches the slow one. *)
  let h = Histogram.create () in
  for _ = 1 to 995 do
    Histogram.add h 3
  done;
  for _ = 1 to 5 do
    Histogram.add h 5000
  done;
  Alcotest.(check bool) "p99 stays in the fast bucket" true
    (Histogram.percentile_interp h 99.0 < 5.0);
  Alcotest.(check bool) "p999 reaches the slow sample's bucket" true
    (Histogram.percentile_interp h 99.9 > 4096.0);
  (* Overflow bucket: samples beyond the last bound interpolate toward
     the true max, never past it. *)
  let h = Histogram.create () in
  Histogram.add h ((1 lsl 23) + 17);
  Histogram.add h ((1 lsl 24) + 5);
  let v = Histogram.percentile_interp h 99.9 in
  Alcotest.(check bool)
    (Printf.sprintf "overflow bucket clamps to max (%.0f)" v)
    true
    (v >= float_of_int (1 lsl 22) && v <= float_of_int ((1 lsl 24) + 5));
  (* Out-of-range p clamps instead of raising. *)
  let h = Histogram.create () in
  Histogram.add h 10;
  Alcotest.(check bool) "p > 100 clamps" true
    (Histogram.percentile_interp h 150.0 <= 10.0);
  Alcotest.(check bool) "p < 0 clamps" true
    (Histogram.percentile_interp h (-5.0) >= 0.0)

(* A ~10k-point report must serialize in linear time and round-trip
   losslessly: the timeline sections of real BENCH reports reach this
   size, and an accidental string-concat (quadratic) serializer would
   turn report writing into the slowest phase of a sweep. *)
let test_json_large_report () =
  let point i =
    Json.Obj
      [
        ("at", Json.Int (i * 500));
        ("resident", Json.Int (i * 48));
        ("unreclaimed", Json.Int (i mod 97));
        ("rate", Json.Float (float_of_int i /. 3.0));
        ("label", Json.String (Printf.sprintf "sample-%d" i));
      ]
  in
  let points = List.init 10_000 point in
  let report =
    Json.Obj
      [
        ("schema_version", Json.Int 1);
        ("name", Json.String "large");
        ("timeline", Json.List points);
      ]
  in
  let t0 = Sys.time () in
  let text = Json.to_string report in
  let elapsed = Sys.time () -. t0 in
  (* Linear serialization of 10k points is milliseconds; a quadratic one
     is tens of seconds. The generous bound keeps slow CI machines green
     while still failing loudly on complexity regressions. *)
  Alcotest.(check bool)
    (Printf.sprintf "10k points serialize fast (%.3fs)" elapsed)
    true (elapsed < 5.0);
  Alcotest.(check bool)
    "large report is non-trivial" true
    (String.length text > 100_000);
  Alcotest.(check bool)
    "large report round-trips losslessly" true
    (Json.of_string text = report)

let suite =
  [
    Alcotest.test_case "prefill guard" `Quick test_prefill_guard;
    Alcotest.test_case "deterministic snapshots" `Quick
      test_deterministic_snapshot;
    Alcotest.test_case "peak/lifecycle invariants" `Quick test_peak_invariant;
    Alcotest.test_case "quiescent flush" `Quick test_quiescent_flush;
    Alcotest.test_case "scheduler tracer" `Quick test_tracer_events;
    Alcotest.test_case "json large report" `Quick test_json_large_report;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "histogram edge cases" `Quick test_histogram_edges;
    Alcotest.test_case "interpolated percentile" `Quick test_percentile_interp;
  ]
