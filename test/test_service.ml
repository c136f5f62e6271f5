(** The traffic engine: arrival processes, Zipfian key generation, tier
    mixes, the open-loop driver, the background reclaimer, the scheduler's
    timer queue and the service-cell cache round trip.

    The generator tests pin same-seed stream hashes (goldens) next to
    statistical sanity checks, so a drift in either the RNG draw order or
    the distributions themselves fails loudly. *)

module Sched = Smr_runtime.Scheduler
module Traffic = Smr_harness.Traffic
module Workload = Smr_harness.Workload
module Plan = Smr_harness.Plan
module Executor = Smr_harness.Executor
module Registry = Smr_harness.Registry
module Histogram = Smr_harness.Histogram

let with_tmp_dir f =
  let dir = Filename.temp_file "hyaline_service" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name -> Sys.remove (Filename.concat dir name))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* -- scheduler: sleep_until ---------------------------------------------- *)

let test_sleep_until () =
  (* A sleeper parks at zero cost and wakes exactly at its deadline even
     though no other thread is runnable: the scheduler fast-forwards idle
     time to the next timer. *)
  let sched = Sched.create ~seed:7 () in
  let woke_at = ref (-1) in
  ignore
    (Sched.spawn sched (fun () ->
         Sched.sleep_until 500;
         woke_at := Sched.now sched));
  (match Sched.run sched with
  | Sched.All_finished -> ()
  | _ -> Alcotest.fail "sleeper did not finish");
  Alcotest.(check int) "woke at the deadline" 500 !woke_at;
  (* Sleeping into the past is a no-op. *)
  let sched = Sched.create () in
  ignore
    (Sched.spawn sched (fun () ->
         Sched.step 10;
         Sched.sleep_until 3));
  (match Sched.run sched with
  | Sched.All_finished -> ()
  | _ -> Alcotest.fail "past sleep must not park");
  (* Interleaved sleepers wake in deadline order. *)
  let sched = Sched.create ~seed:11 () in
  let order = ref [] in
  let sleeper label at =
    ignore
      (Sched.spawn sched (fun () ->
           Sched.sleep_until at;
           order := label :: !order))
  in
  sleeper "c" 900;
  sleeper "a" 100;
  sleeper "b" 400;
  (match Sched.run sched with
  | Sched.All_finished -> ()
  | _ -> Alcotest.fail "sleepers did not finish");
  Alcotest.(check (list string))
    "deadline order" [ "a"; "b"; "c" ] (List.rev !order);
  Alcotest.(check int) "no pending sleepers left" 0 (Sched.pending_sleeps sched)

(* Equal-deadline sleepers wake in park order: the timer heap is keyed
   (wake_at, seq) with a monotone sequence number, reproducing the old
   sorted list's stable insertion order exactly. Waking is the
   [Ev_unstall] the run loop emits as it pops due timers — what happens
   after that is the ordinary random picker, so the heap's FIFO contract
   is asserted on the trace, not on resume order. Property-style: random
   rounds of sleepers drawn from a tiny deadline range, so collisions are
   the common case, checked against a stable sort of the observed park
   order. Recording the park happens on the same uncharged step as the
   [sleep_until] call, so the recorded order {e is} the park order. *)
let test_timer_fifo () =
  let rng = Random.State.make [| 424242 |] in
  for round = 1 to 20 do
    let sched = Sched.create ~seed:(100 + round) () in
    let n = 40 in
    let parked = ref [] in
    let woken = ref [] in
    Sched.set_tracer sched
      (Some
         (function
         | Sched.Ev_unstall { tid; _ } -> woken := tid :: !woken
         | _ -> ()));
    for _ = 1 to n do
      ignore
        (Sched.spawn sched (fun () ->
             let at = 10 + Random.State.int rng 5 in
             parked := (at, Sched.self ()) :: !parked;
             Sched.sleep_until at))
    done;
    (match Sched.run sched with
    | Sched.All_finished -> ()
    | _ -> Alcotest.fail "timer-fifo sleepers did not finish");
    let expected =
      List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev !parked)
      |> List.map snd
    in
    Alcotest.(check (list int))
      (Printf.sprintf "round %d: equal-time sleepers wake FIFO" round)
      expected (List.rev !woken);
    Alcotest.(check int)
      "no pending sleepers left" 0
      (Sched.pending_sleeps sched)
  done

(* -- arrival processes ---------------------------------------------------- *)

let gaps_of proc ~n =
  let s = Traffic.arrivals ~seed:99 proc in
  let prev = ref 0 in
  List.init n (fun _ ->
      let at = Traffic.next_arrival s in
      let g = at - !prev in
      prev := at;
      g)

let test_poisson_mean () =
  let mean_gap = 64 in
  let n = 5_000 in
  let gaps = gaps_of (Traffic.Poisson { mean_gap }) ~n in
  List.iter
    (fun g -> Alcotest.(check bool) "gap is positive" true (g >= 1))
    gaps;
  let mean =
    float_of_int (List.fold_left ( + ) 0 gaps) /. float_of_int n
  in
  (* Exponential gaps floored at 1 and truncated to int undershoot the
     nominal mean slightly; 15% bounds the seed-to-seed wobble at n=5000
     with lots of margin while still catching a broken inverse CDF. *)
  Alcotest.(check bool)
    (Printf.sprintf "inter-arrival mean converges (%.1f vs %d)" mean mean_gap)
    true
    (abs_float (mean -. float_of_int mean_gap) /. float_of_int mean_gap
    < 0.15)

let test_bursty_and_diurnal () =
  (* Bursty: gaps drawn inside the burst window are smaller on average. *)
  let burst_every = 10_000 and burst_len = 2_000 in
  let s =
    Traffic.arrivals ~seed:5
      (Traffic.Bursty { mean_gap = 80; burst_gap = 10; burst_every; burst_len })
  in
  let in_burst = ref (0, 0) and outside = ref (0, 0) in
  let prev = ref 0 in
  for _ = 1 to 4_000 do
    let at = Traffic.next_arrival s in
    let g = at - !prev in
    let acc = if !prev mod burst_every < burst_len then in_burst else outside in
    acc := (fst !acc + g, snd !acc + 1);
    prev := at
  done;
  let avg (sum, n) = float_of_int sum /. float_of_int (max n 1) in
  Alcotest.(check bool)
    (Printf.sprintf "burst gaps shrink (%.1f vs %.1f)" (avg !in_burst)
       (avg !outside))
    true
    (avg !in_burst < avg !outside /. 2.0);
  (* Diurnal: the trough phase arrives slower than the peak phase. *)
  let period = 20_000 in
  let s =
    Traffic.arrivals ~seed:5
      (Traffic.Diurnal { trough_gap = 200; peak_gap = 20; period })
  in
  let first_quarter = ref (0, 0) and mid = ref (0, 0) in
  let prev = ref 0 in
  for _ = 1 to 2_000 do
    let at = Traffic.next_arrival s in
    let g = at - !prev in
    let phase = !prev mod period in
    if phase < period / 4 then first_quarter := (fst !first_quarter + g, snd !first_quarter + 1)
    else if phase >= period * 2 / 5 && phase < period * 3 / 5 then
      mid := (fst !mid + g, snd !mid + 1);
    prev := at
  done;
  Alcotest.(check bool)
    (Printf.sprintf "diurnal ramps (%.1f vs %.1f)" (avg !first_quarter)
       (avg !mid))
    true
    (avg !first_quarter > avg !mid)

(* Same seed, same stream: the arrival sequence is part of the cell
   identity, so its exact draws are pinned as a golden hash. *)
let test_arrival_golden () =
  let render proc =
    let s = Traffic.arrivals ~seed:13 proc in
    let b = Buffer.create 4096 in
    for _ = 1 to 1_000 do
      Buffer.add_string b (string_of_int (Traffic.next_arrival s));
      Buffer.add_char b ','
    done;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let poisson = render (Traffic.Poisson { mean_gap = 64 }) in
  Alcotest.(check string)
    "poisson stream golden" "e64bc0bb516eaef3f19326461cc328c7" poisson;
  Alcotest.(check string)
    "poisson stream deterministic" poisson
    (render (Traffic.Poisson { mean_gap = 64 }));
  let bursty =
    render
      (Traffic.Bursty
         { mean_gap = 80; burst_gap = 10; burst_every = 10_000; burst_len = 2_000 })
  in
  Alcotest.(check string)
    "bursty stream golden" "49c98dfe06ac551f5e55d1dda2c0c23f" bursty

(* -- Zipfian keys --------------------------------------------------------- *)

let test_zipf_skew () =
  let n = 256 in
  let z = Traffic.zipf_make ~n ~theta:0.9 in
  let rng = Random.State.make [| 21 |] in
  let counts = Array.make n 0 in
  let draws = 20_000 in
  for _ = 1 to draws do
    let k = Traffic.zipf_draw z rng in
    Alcotest.(check bool) "draw in range" true (k >= 0 && k < n);
    counts.(k) <- counts.(k) + 1
  done;
  (* Rank-ordered: key 0 is the hottest; the top 8 of 256 keys carry far
     more than their uniform share (8/256 ≈ 3%) — a chi-squared-style
     skew check with a wide margin. *)
  let top8 = ref 0 in
  for k = 0 to 7 do
    top8 := !top8 + counts.(k)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "top-8 keys carry the mass (%d/%d)" !top8 draws)
    true
    (float_of_int !top8 /. float_of_int draws > 0.30);
  Alcotest.(check bool) "key 0 beats key 128" true (counts.(0) > counts.(128));
  (* Golden: the exact draw sequence is pinned. *)
  let render () =
    let z = Traffic.zipf_make ~n ~theta:0.9 in
    let rng = Random.State.make [| 21 |] in
    let b = Buffer.create 4096 in
    for _ = 1 to 1_000 do
      Buffer.add_string b (string_of_int (Traffic.zipf_draw z rng));
      Buffer.add_char b ','
    done;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  Alcotest.(check string)
    "zipf stream golden" "f738e08d29b34afe372dcf5ec15e4481" (render ());
  Alcotest.(check string) "zipf stream deterministic" (render ()) (render ())

(* -- mixes and tiers ------------------------------------------------------ *)

let test_mix_and_tiers () =
  (* Balanced mixes (the historical shape) keep the dice-parity
     insert/delete split; a skewed mix uses range splitting. *)
  let wh = Workload.write_heavy in
  Alcotest.(check bool) "write_heavy is balanced" true (Traffic.balanced wh);
  Alcotest.(check bool)
    "read_mostly is balanced" true
    (Traffic.balanced Workload.read_mostly);
  (match Traffic.op_of_dice wh 42 with
  | Traffic.Insert -> ()
  | _ -> Alcotest.fail "balanced: even dice is an insert");
  (match Traffic.op_of_dice wh 43 with
  | Traffic.Delete -> ()
  | _ -> Alcotest.fail "balanced: odd dice is a delete");
  let skew = Workload.mix ~insert_pct:40 0 in
  Alcotest.(check bool) "skewed mix" false (Traffic.balanced skew);
  (match Traffic.op_of_dice skew 39 with
  | Traffic.Insert -> ()
  | _ -> Alcotest.fail "skewed: dice 39 is an insert");
  (match Traffic.op_of_dice skew 40 with
  | Traffic.Delete -> ()
  | _ -> Alcotest.fail "skewed: dice 40 is a delete");
  (match Workload.mix ~insert_pct:80 30 with
  | _ -> Alcotest.fail "mix must reject insert_pct > 100 - read_pct"
  | exception Invalid_argument _ -> ());
  (* Tier weights partition workers; no tiers means the default mix. *)
  let tiers =
    [
      { Traffic.tier_name = "r"; tier_mix = Workload.read_mostly; tier_weight = 3 };
      { Traffic.tier_name = "w"; tier_mix = Workload.write_heavy; tier_weight = 1 };
    ]
  in
  let mixes = Traffic.tier_mixes ~threads:8 ~default:Workload.write_heavy tiers in
  let readers =
    Array.to_list mixes
    |> List.filter (fun m -> m = Workload.read_mostly)
    |> List.length
  in
  Alcotest.(check int) "3:1 weights over 8 workers" 6 readers;
  let none = Traffic.tier_mixes ~threads:4 ~default:Workload.write_heavy [] in
  Array.iter
    (fun m ->
      Alcotest.(check bool) "no tiers: default mix" true (m = Workload.write_heavy))
    none

(* -- cell identity: conditional key suffixes ------------------------------ *)

let test_cell_key_suffixes () =
  let base =
    Plan.cell ~scheme:"Epoch" ~structure:Registry.Hashmap ~threads:2
      ~budget:2_000 ~prefill:8 ()
  in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let k = Plan.cell_key base in
  (* Pre-existing cells must keep their historical keys byte-for-byte:
     no insert_pct, churn or service suffix sneaks in. *)
  Alcotest.(check bool) "no insert_pct suffix" false (contains k "insert_pct");
  Alcotest.(check bool) "no service suffix" false (contains k "service=");
  let skewed =
    Plan.cell ~scheme:"Epoch" ~structure:Registry.Hashmap ~threads:2
      ~budget:2_000 ~prefill:8 ~mix:(Workload.mix ~insert_pct:40 0) ()
  in
  Alcotest.(check bool)
    "skewed mix gets a suffix" true
    (contains (Plan.cell_key skewed) "insert_pct=40");
  let svc =
    Plan.cell ~scheme:"Epoch" ~structure:Registry.Hashmap ~threads:2
      ~budget:2_000 ~prefill:8
      ~service:(Traffic.poisson_service ())
      ()
  in
  let sk = Plan.cell_key svc in
  Alcotest.(check bool) "service suffix present" true (contains sk "service=");
  Alcotest.(check bool)
    "service changes the hash" false
    (String.equal (Plan.cell_hash base) (Plan.cell_hash svc))

(* -- the open-loop driver -------------------------------------------------- *)

let open_spec =
  {
    Workload.default_spec with
    threads = 3;
    key_range = 128;
    prefill = 32;
    buckets = 64;
    budget = 40_000;
    sample_every = 2_000;
    cfg = Test_support.test_cfg ~threads:5 (* 1 + 3 workers + reclaimer *);
    service =
      Some
        {
          Traffic.arrival = Traffic.Poisson { mean_gap = 24 };
          keys = Traffic.Zipf { theta = 0.9 };
          storm =
            Some
              {
                Traffic.storm_at = 10_000;
                storm_len = 10_000;
                storm_keys = 4;
                storm_pct = 60;
              };
          tiers = [];
          reclaimer = Traffic.Periodic 1_000;
        };
  }

let run_open (module S : Test_support.SMR) spec =
  let module Map = Smr_ds.Michael_hashmap.Make (S) in
  Workload.run (module Map) spec

let test_open_loop_smoke () =
  let r = run_open (module Test_support.Hyaline_s) open_spec in
  let sv =
    match r.Workload.service with
    | Some s -> s
    | None -> Alcotest.fail "open-loop run must report service stats"
  in
  Alcotest.(check bool) "arrivals flowed" true (sv.Workload.sv_arrivals > 500);
  Alcotest.(check bool)
    "served a prefix of the arrivals" true
    (sv.Workload.sv_served > 0 && sv.Workload.sv_served <= sv.Workload.sv_arrivals);
  Alcotest.(check int) "every served op has a queue-delay sample"
    sv.Workload.sv_served
    (Histogram.count sv.Workload.sv_queue);
  Alcotest.(check int) "every served op has a sojourn sample"
    sv.Workload.sv_served
    (Histogram.count sv.Workload.sv_sojourn);
  Alcotest.(check bool)
    "sojourn includes queueing" true
    (Histogram.sum sv.Workload.sv_sojourn >= Histogram.sum sv.Workload.sv_queue);
  Alcotest.(check bool) "storm collapsed keys" true (sv.Workload.sv_hot_ops > 0);
  Alcotest.(check bool)
    "the reclaimer ticked" true
    (sv.Workload.sv_reclaimer_wakes > 10);
  Alcotest.(check bool) "timeline sampled" true (List.length r.Workload.timeline > 10);
  (* Determinism: the open-loop schedule replays bit-identically. *)
  let r2 = run_open (module Test_support.Hyaline_s) open_spec in
  Alcotest.(check int) "ops replay" r.Workload.ops r2.Workload.ops;
  Alcotest.(check int) "steps replay" r.Workload.steps r2.Workload.steps;
  let sv2 = Option.get r2.Workload.service in
  Alcotest.(check int) "arrivals replay" sv.Workload.sv_arrivals
    sv2.Workload.sv_arrivals;
  Alcotest.(check (list int))
    "sojourn histogram replays"
    (Histogram.to_list sv.Workload.sv_sojourn)
    (Histogram.to_list sv2.Workload.sv_sojourn)

(* The heap-backed timer queue must replay the exact schedule the old
   sorted-list queue produced — same wake order, same interleaving, same
   served counts and latency histograms. The schedule is timer-heavy
   (bursty arrivals, a periodic reclaimer and session lanes all park on
   the queue); the heap reproduced the sorted-list hash bit for bit, and
   the hash pinned here is the heap's, recorded after the schedule last
   changed under Hyaline-S's charged ops. Any reordering the heap
   introduces — including equal-deadline ties broken off FIFO — shows up
   as a hash drift here. *)
let test_timer_schedule_golden () =
  let spec =
    {
      open_spec with
      Workload.cfg =
        Test_support.test_cfg ~threads:7 (* 1 + 3 workers + reclaimer + 2 lanes *);
      churn = Some { Workload.sessions = 40; session_ops = 4; lanes = 2 };
    }
  in
  let render () =
    let r = run_open (module Test_support.Hyaline_s) spec in
    let sv = Option.get r.Workload.service in
    let b = Buffer.create 4096 in
    let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    add "ops=%d;steps=%d;arrivals=%d;served=%d;hot=%d;wakes=%d;"
      r.Workload.ops r.Workload.steps sv.Workload.sv_arrivals
      sv.Workload.sv_served sv.Workload.sv_hot_ops
      sv.Workload.sv_reclaimer_wakes;
    List.iter (add "q%d,") (Histogram.to_list sv.Workload.sv_queue);
    List.iter (add "s%d,") (Histogram.to_list sv.Workload.sv_sojourn);
    List.iter
      (fun (s : Workload.sample) ->
        add "t%d:%d:%d;" s.Workload.s_at s.Workload.s_resident
          s.Workload.s_unreclaimed)
      r.Workload.timeline;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let h = render () in
  Alcotest.(check string) "churn+service schedule replays" h (render ());
  Alcotest.(check string)
    "churn+service schedule golden"
    "dbe2301d6b0efa951579605d2942eeba" h

let test_dedicated_reclaimer () =
  let spec =
    {
      open_spec with
      service =
        Some
          {
            (Option.get open_spec.Workload.service) with
            Traffic.reclaimer = Traffic.Dedicated 400;
          };
    }
  in
  let r = run_open (module Test_support.Ebr) spec in
  let sv = Option.get r.Workload.service in
  (* Budget 40k at ~400 cost per round, fair-shared with three workers:
     a few dozen rounds. The exact count is schedule-dependent; what
     matters is that the dedicated loop runs throughout the phase. *)
  Alcotest.(check bool)
    "dedicated reclaimer spins" true
    (sv.Workload.sv_reclaimer_wakes > 20)

(* -- executor: service cells and OOM rows in the cache -------------------- *)

let service_cell () =
  Plan.cell ~scheme:"Hyaline-S" ~structure:Registry.Hashmap ~threads:2
    ~budget:10_000 ~prefill:16 ~key_range:64 ~sample_every:1_000
    ~service:(Traffic.poisson_service ~mean_gap:24 ())
    ()

let test_service_cache_roundtrip () =
  with_tmp_dir (fun dir ->
      let plan = { Plan.name = "svc"; cells = [ service_cell () ] } in
      let s1 = Executor.run ~cache:dir plan in
      Alcotest.(check int) "first run executes" 1 s1.Executor.stats.executed;
      let s2 = Executor.run ~cache:dir plan in
      Alcotest.(check int) "warm run executes nothing" 0
        s2.Executor.stats.executed;
      Alcotest.(check int) "warm run hits" 1 s2.Executor.stats.cache_hits;
      let result = function
        | { Executor.outcome = Executor.Done r; _ } :: _ -> r
        | _ -> Alcotest.fail "expected a Done row"
      in
      let a = result s1.Executor.rows and b = result s2.Executor.rows in
      let sa = Option.get a.Workload.service
      and sb = Option.get b.Workload.service in
      (* The cached service section is a lossless round trip. *)
      Alcotest.(check int) "arrivals survive" sa.Workload.sv_arrivals
        sb.Workload.sv_arrivals;
      Alcotest.(check int) "served survives" sa.Workload.sv_served
        sb.Workload.sv_served;
      Alcotest.(check int) "hot ops survive" sa.Workload.sv_hot_ops
        sb.Workload.sv_hot_ops;
      Alcotest.(check (list int))
        "queue histogram survives"
        (Histogram.to_list sa.Workload.sv_queue)
        (Histogram.to_list sb.Workload.sv_queue);
      Alcotest.(check (list int))
        "sojourn histogram survives"
        (Histogram.to_list sa.Workload.sv_sojourn)
        (Histogram.to_list sb.Workload.sv_sojourn);
      Alcotest.(check int) "sojourn sum survives"
        (Histogram.sum sa.Workload.sv_sojourn)
        (Histogram.sum sb.Workload.sv_sojourn))

let test_oom_rows_cached () =
  (* A 2KB budget OOMs Epoch deterministically; the failure row must be
     served from cache on the warm run — otherwise a service sweep with an
     intentionally OOMing cell could never reach executed=0. *)
  let cfg =
    {
      (Plan.base_cfg ~max_threads:1) with
      Smr.Smr_intf.budget_bytes = Some 2_048;
    }
  in
  let cell =
    Plan.cell ~scheme:"Epoch" ~structure:Registry.Hashmap ~threads:2 ~stalled:1
      ~budget:20_000 ~prefill:4 ~key_range:64 ~cfg ()
  in
  with_tmp_dir (fun dir ->
      let plan = { Plan.name = "oom"; cells = [ cell ] } in
      let s1 = Executor.run ~cache:dir plan in
      Alcotest.(check int) "first run executes" 1 s1.Executor.stats.executed;
      Alcotest.(check int) "first run fails" 1 s1.Executor.stats.failed;
      let msg = function
        | { Executor.outcome = Executor.Failed m; _ } :: _ -> m
        | _ -> Alcotest.fail "expected a Failed row"
      in
      Alcotest.(check bool)
        "failure is a simulated OOM" true
        (Executor.cacheable_failure (msg s1.Executor.rows));
      let s2 = Executor.run ~cache:dir plan in
      Alcotest.(check int) "warm run executes nothing" 0
        s2.Executor.stats.executed;
      Alcotest.(check int) "warm run still reports the failure" 1
        s2.Executor.stats.failed;
      Alcotest.(check int) "warm run hit the cache" 1
        s2.Executor.stats.cache_hits;
      Alcotest.(check string)
        "cached failure message survives" (msg s1.Executor.rows)
        (msg s2.Executor.rows))

let suite =
  [
    Alcotest.test_case "sleep-until" `Quick test_sleep_until;
    Alcotest.test_case "timer-fifo" `Quick test_timer_fifo;
    Alcotest.test_case "timer-schedule-golden" `Quick
      test_timer_schedule_golden;
    Alcotest.test_case "poisson-mean" `Quick test_poisson_mean;
    Alcotest.test_case "bursty-diurnal" `Quick test_bursty_and_diurnal;
    Alcotest.test_case "arrival-goldens" `Quick test_arrival_golden;
    Alcotest.test_case "zipf-skew-and-golden" `Quick test_zipf_skew;
    Alcotest.test_case "mix-and-tiers" `Quick test_mix_and_tiers;
    Alcotest.test_case "cell-key-suffixes" `Quick test_cell_key_suffixes;
    Alcotest.test_case "open-loop-smoke" `Quick test_open_loop_smoke;
    Alcotest.test_case "dedicated-reclaimer" `Quick test_dedicated_reclaimer;
    Alcotest.test_case "service-cache-roundtrip" `Quick
      test_service_cache_roundtrip;
    Alcotest.test_case "oom-rows-cached" `Quick test_oom_rows_cached;
  ]
