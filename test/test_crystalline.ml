(** The Crystalline wait-free scheme family: lifecycle round trips for
    both flavours, stale-pointer attribution through the allocator's
    generation tags, the stall/kill memory bound against EBR, the
    kill-mid-critical-section peer-adoption handshake, and — the
    negative control — a deliberately unsound helper flavour whose
    missing era re-validation is caught by the explorer as a
    use-after-free, shrunk, and round-tripped through a trace file. *)

module Sim = Smr_runtime.Sim_runtime
module Explore = Smr_runtime.Explore
module Verify = Smr_harness.Verify
module Trace_file = Smr_harness.Trace_file
open Test_support

module L = Hyaline_core.Crystalline_l.Make (Sim)
module W = Hyaline_core.Crystalline_w.Make (Sim)

(* The production wait-free flavour with its fast path disabled: every
   contended protect goes straight to the publish/help/adopt handshake,
   so the kill-injection test exercises peer adoption on every era
   advance rather than once in a while. *)
module W_eager =
  Hyaline_core.Engine_single.Make
    (Sim)
    (struct
      let scheme_name = "Crystalline-W/eager"

      let reader =
        Hyaline_core.Engine_single.Handshake
          { fast_tries = 0; validate_help = true }
    end)

(* The unsound negative control (see [Engine_single.reader]): helpers
   complete a parked request with the seeker's own unvalidated read
   instead of redoing it under a raised reservation, so the batch
   holding that value can seal past the seeker's stale access era and
   reclaim it — a use-after-free the explorer must find. *)
module W_broken =
  Hyaline_core.Engine_single.Make
    (Sim)
    (struct
      let scheme_name = "Crystalline-W/broken"

      let reader =
        Hyaline_core.Engine_single.Handshake
          { fast_tries = 0; validate_help = false }
    end)

let contains msg sub =
  let lower = String.lowercase_ascii msg in
  let sub = String.lowercase_ascii sub in
  let n = String.length sub and m = String.length lower in
  let rec go i = i + n <= m && (String.sub lower i n = sub || go (i + 1)) in
  go 0

(* -- lifecycle round trips ------------------------------------------------ *)

(* Both flavours, and every other instance of the two engines that share
   their retire side: allocate/retire/flush on one thread reclaims
   everything, and the metrics snapshot carries the Hyaline batch
   series; the handshake counters are reported by the wait-free flavour
   alone, since only it runs the handshake. The full ordered series list
   pins the shared front-end's assembly: its four batch counters, then
   the engine's own, then the registry's. *)
let common_series =
  [ "batches_sealed"; "batch_nodes_sealed"; "trims"; "insert_cas_retries" ]

let registry_series =
  [ "registered"; "deregistered"; "slot_reuses"; "peak_live_slots" ]

let multi_series =
  common_series @ [ "leave_cas_retries"; "slot_grows" ] @ registry_series

let single_series = common_series @ registry_series

let handshake_series =
  common_series
  @ [
      "protect_fast_retries";
      "protect_slow_paths";
      "help_deposits";
      "help_adoptions";
    ]
  @ registry_series

let test_lifecycle () =
  List.iter
    (fun (name, handshake, expected, (module S : SMR)) ->
      run_solo (fun () ->
          let t = S.create (test_cfg ~threads:2) in
          let g = S.enter t in
          for i = 1 to 40 do
            let n = S.alloc t i in
            Alcotest.(check int) (name ^ ": payload") i (S.data n);
            S.retire t g n
          done;
          let g = S.refresh t g in
          S.leave t g;
          S.flush t;
          check_no_leak name (S.stats t);
          let m = S.metrics t in
          let series k = Smr.Metrics.series_value m k in
          Alcotest.(check bool)
            (name ^ ": batches sealed") true
            (Option.value ~default:0 (series "batches_sealed") > 0);
          List.iter
            (fun k ->
              Alcotest.(check bool)
                (name ^ ": handshake series " ^ k ^ " reported")
                handshake
                (Option.is_some (series k)))
            [
              "protect_fast_retries";
              "protect_slow_paths";
              "help_deposits";
              "help_adoptions";
            ];
          Alcotest.(check (list string))
            (name ^ ": series names in order")
            expected
            (List.map fst m.Smr.Metrics.series)))
    [
      ("crystalline-l", false, single_series, (module L : SMR));
      ("crystalline-w", true, handshake_series, (module W));
      ("hyaline", false, multi_series, (module Hyaline));
      ("hyaline-llsc", false, multi_series, (module Hyaline_llsc));
      ("hyaline-s", false, multi_series, (module Hyaline_s));
      ("hyaline-s-llsc", false, multi_series, (module Hyaline_s_llsc));
      ("hyaline-1", false, single_series, (module Hyaline1));
      ("hyaline-1s", false, single_series, (module Hyaline1s));
    ]

(* -- stale-pointer attribution via allocator generations ------------------ *)

(* A pointer held across its node's reclamation: before the slot is
   reissued the auditor reports a plain use-after-free; once a later
   allocation reuses the slot under a bumped generation the same
   dereference is attributed as ABA. *)
let test_aba_attribution () =
  run_solo (fun () ->
      let t = W.create (test_cfg ~threads:2) in
      let g = W.enter t in
      let stale = W.alloc t 7 in
      W.retire t g stale;
      W.leave t g;
      W.flush t;
      check_no_leak "crystalline-w" (W.stats t);
      (match W.data stale with
      | _ -> Alcotest.fail "freed node dereference accepted"
      | exception Smr.Smr_intf.Use_after_free msg ->
          Alcotest.(check bool)
            ("no ABA claim before reuse: " ^ msg)
            false (contains msg "ABA"));
      (* Reissue the freed slots: [flush] freed the whole padded batch,
         so a batch worth of fresh nodes must recycle the stale one. *)
      let g = W.enter t in
      let fresh = List.init 12 (fun i -> W.alloc t (100 + i)) in
      (match W.data stale with
      | _ -> Alcotest.fail "ABA'd node dereference accepted"
      | exception Smr.Smr_intf.Use_after_free msg ->
          Alcotest.(check bool)
            ("ABA attributed after reuse: " ^ msg)
            true
            (contains msg "use after free" && contains msg "ABA"));
      List.iter (fun n -> W.retire t g n) fresh;
      W.leave t g;
      W.flush t)

(* -- the memory bound under a stalled reader, vs EBR ---------------------- *)

(* The Fig. 10a adversary through the shared robustness probe: both
   Crystalline flavours stay within the robust bound while EBR's backlog
   grows with the churn — the memory half of wait-freedom, asserted
   directly against the engine rather than via the full verify sweep. *)
let test_stall_bound_vs_ebr () =
  let writers = 2 in
  let bound = Verify.robust_bound ~writers in
  let probe name =
    match Verify.scheme_of_name name with
    | Some s -> Verify.robustness_probe ~writers ~name s
    | None -> Alcotest.fail ("registry lost " ^ name)
  in
  let w = probe "Crystalline-W"
  and l = probe "Crystalline-L"
  and ebr = probe "Epoch" in
  List.iter
    (fun (r : Verify.robustness) ->
      Alcotest.(check bool)
        (r.Verify.r_scheme ^ ": bounded under a stalled reader")
        true
        (r.Verify.r_peak <= bound))
    [ w; l ];
  Alcotest.(check bool) "EBR grows past the bound" true
    (ebr.Verify.r_peak > 2 * bound);
  Alcotest.(check bool) "EBR peak dwarfs Crystalline-W's" true
    (ebr.Verify.r_peak > 4 * w.Verify.r_peak)

(* -- kill mid-critical-section: peers adopt the dead reader's request ----- *)

(* A reader that parks itself in the slow path can die at any moment —
   between publishing its request and adopting the deposit. Killing it
   at every early decision index must leave every execution conformant
   (bounded unreclaimed at quiescence; the dead slot pins at most what
   the skip rule allows), and in at least one of those executions a
   peer's era advance must have completed the dead reader's request
   ([help_deposits] with no surviving seeker). *)
let test_kill_adoption () =
  let captured = ref None in
  let program () =
    let cfg =
      {
        (test_cfg ~threads:3) with
        Smr.Smr_intf.batch_size = 2;
        era_freq = 1;
      }
    in
    let t = W_eager.create cfg in
    let shared = W_eager.R.Atomic.make None in
    let reader () =
      let g = W_eager.enter t in
      for _ = 1 to 2 do
        match
          W_eager.protect t g ~idx:0
            ~read:(fun () -> W_eager.R.Atomic.get shared)
            ~target:(fun v -> v)
        with
        | Some n -> ignore (W_eager.data n)
        | None -> ()
      done;
      W_eager.leave t g
    in
    let writer tid () =
      let g = W_eager.enter t in
      for i = 1 to 3 do
        let n = W_eager.alloc t ((10 * tid) + i) in
        match W_eager.R.Atomic.exchange shared (Some n) with
        | Some old -> W_eager.retire t g old
        | None -> ()
      done;
      W_eager.leave t g
    in
    ( [ reader; writer 1; writer 2 ],
      fun () ->
        captured := Some (W_eager.metrics t);
        true )
  in
  let deposits_seen = ref 0 in
  let peak_bound = 24 in
  for k = 2 to 50 do
    captured := None;
    (match
       Explore.explore
         ~mode:(Explore.Random_walk { walks = 1 })
         ~seed:k
         ~faults:[ Explore.kill_at ~victim:0 ~at:k () ]
         ~max_steps:max_int program
     with
    | Explore.Violation { message; _ } ->
        Alcotest.fail
          (Printf.sprintf "kill at %d: violation: %s" k message)
    | Explore.Exhausted _ | Explore.Limit_reached _ -> ());
    match !captured with
    | None -> Alcotest.fail "post-condition never ran"
    | Some m ->
        let v key =
          Option.value ~default:0 (Smr.Metrics.series_value m key)
        in
        deposits_seen := !deposits_seen + v "help_deposits";
        Alcotest.(check bool)
          (Printf.sprintf "kill at %d: peak %d bounded" k
             m.Smr.Metrics.peak_unreclaimed)
          true
          (m.Smr.Metrics.peak_unreclaimed <= peak_bound)
  done;
  Alcotest.(check bool)
    "some killed reader's request was completed by a peer" true
    (!deposits_seen > 0)

(* -- negative control: the unsound helper is caught as a UAF -------------- *)

(* The [W_broken] failure choreography the explorer must discover: the
   reader's fast attempt reads the seeded node while its access era
   still lags (an unvalidated read), publishes its request and samples
   the era; the sealer's pre-staging allocations then deposit that
   stale value verbatim (the broken helper runs on every era advance)
   and advance the era past the reader's sample; the sealer retires a
   full batch — the seeded node among the retirees — and seals it while
   the parked reader's access era is still zero, so the skip rule
   passes over every slot and the batch is freed on the spot; the
   reader resumes, fails its own validation (the era moved), adopts the
   deposit, and dereferences the freed node. The explorer must find the
   dereference, the shrinker must make it hand-readable, and the trace
   file must replay it. *)
let broken_program : Explore.program =
 fun () ->
  let cfg =
    {
      (test_cfg ~threads:3) with
      Smr.Smr_intf.batch_size = 2;
      era_freq = 1;
    }
  in
  let t = W_broken.create cfg in
  let shared = W_broken.R.Atomic.make None in
  (* Seeds the cell with the node the reader's failed fast attempt will
     capture. *)
  let seeder () =
    let a = W_broken.alloc t 1 in
    ignore (W_broken.R.Atomic.exchange shared (Some a))
  in
  (* Pre-stages nodes (each allocation runs pending helpers and
     advances the era), then seals a batch containing the seeded node
     using retires only — nothing between the reader's parking and the
     seal redoes its read soundly. *)
  let sealer () =
    let g = W_broken.enter t in
    let m1 = W_broken.alloc t 11 in
    let m2 = W_broken.alloc t 12 in
    let m3 = W_broken.alloc t 13 in
    let m4 = W_broken.alloc t 14 in
    (match W_broken.R.Atomic.exchange shared (Some m4) with
    | Some old -> W_broken.retire t g old
    | None -> ());
    (match W_broken.R.Atomic.exchange shared (Some m3) with
    | Some old -> W_broken.retire t g old
    | None -> ());
    W_broken.retire t g m2;
    W_broken.retire t g m1;
    W_broken.leave t g
  in
  let reader () =
    let g = W_broken.enter t in
    (match
       W_broken.protect t g ~idx:0
         ~read:(fun () -> W_broken.R.Atomic.get shared)
         ~target:(fun v -> v)
     with
    | Some n -> ignore (W_broken.data n)
    | None -> ());
    W_broken.leave t g
  in
  ([ seeder; reader; sealer ], fun () -> true)

let find_violation name outcome =
  match outcome with
  | Explore.Violation { schedule; message } -> (schedule, message)
  | Explore.Exhausted n | Explore.Limit_reached n ->
      Alcotest.fail
        (Printf.sprintf "%s missed the unsound-helper use-after-free (%d runs)"
           name n)

let test_broken_helper_caught () =
  let schedule, message =
    find_violation "random-walk"
      (Explore.explore
         ~mode:(Explore.Random_walk { walks = 4096 })
         ~seed:1 broken_program)
  in
  Alcotest.(check bool)
    ("auditor names the stale deposit: " ^ message)
    true
    (contains message "use after free" || contains message "use_after_free");
  let shrunk = Explore.shrink broken_program schedule in
  Alcotest.(check bool)
    (Printf.sprintf "shrunk to <= 20 decisions (got %d)" (List.length shrunk))
    true
    (List.length shrunk <= 20);
  (match Explore.replay_outcome broken_program shrunk with
  | Ok () -> Alcotest.fail "shrunk schedule no longer fails"
  | Error m ->
      Alcotest.(check string) "shrunk replays to the same failure" message m);
  (* And the counterexample survives the trace-file format. *)
  let trace =
    {
      Trace_file.meta =
        [
          ("scheme", "Crystalline-W/broken");
          ("note", "helper deposited the seeker's unvalidated read");
        ];
      faults = [];
      schedule = shrunk;
      message;
    }
  in
  let path = Filename.temp_file "crystalline_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_file.save ~path trace;
      let loaded = Trace_file.load ~path in
      Alcotest.(check (list int))
        "schedule survives" shrunk loaded.Trace_file.schedule;
      match Explore.replay_outcome broken_program loaded.Trace_file.schedule with
      | Ok () -> Alcotest.fail "loaded trace does not reproduce"
      | Error m ->
          Alcotest.(check string) "loaded trace reproduces the failure"
            loaded.Trace_file.message m)

(* The sound production flavour survives the exact same choreography
   and budget: the reservation-raising re-read under re-validation is
   precisely what the negative control removed. *)
let sound_program : Explore.program =
 fun () ->
  let cfg =
    {
      (test_cfg ~threads:3) with
      Smr.Smr_intf.batch_size = 2;
      era_freq = 1;
    }
  in
  let t = W_eager.create cfg in
  let shared = W_eager.R.Atomic.make None in
  let seeder () =
    let a = W_eager.alloc t 1 in
    ignore (W_eager.R.Atomic.exchange shared (Some a))
  in
  let sealer () =
    let g = W_eager.enter t in
    let m1 = W_eager.alloc t 11 in
    let m2 = W_eager.alloc t 12 in
    let m3 = W_eager.alloc t 13 in
    let m4 = W_eager.alloc t 14 in
    (match W_eager.R.Atomic.exchange shared (Some m4) with
    | Some old -> W_eager.retire t g old
    | None -> ());
    (match W_eager.R.Atomic.exchange shared (Some m3) with
    | Some old -> W_eager.retire t g old
    | None -> ());
    W_eager.retire t g m2;
    W_eager.retire t g m1;
    W_eager.leave t g
  in
  let reader () =
    let g = W_eager.enter t in
    (match
       W_eager.protect t g ~idx:0
         ~read:(fun () -> W_eager.R.Atomic.get shared)
         ~target:(fun v -> v)
     with
    | Some n -> ignore (W_eager.data n)
    | None -> ());
    W_eager.leave t g
  in
  ([ seeder; sealer; reader ], fun () -> true)

let test_sound_helper_passes () =
  match
    Explore.explore
      ~mode:(Explore.Random_walk { walks = 4096 })
      ~seed:1 sound_program
  with
  | Explore.Violation { message; _ } ->
      Alcotest.fail ("validated helper flagged a violation: " ^ message)
  | Explore.Exhausted _ | Explore.Limit_reached _ -> ()

let suite =
  [
    Alcotest.test_case "lifecycle-both-flavours" `Quick test_lifecycle;
    Alcotest.test_case "aba-attribution" `Quick test_aba_attribution;
    Alcotest.test_case "stall-bound-vs-ebr" `Quick test_stall_bound_vs_ebr;
    Alcotest.test_case "kill-adoption" `Quick test_kill_adoption;
    Alcotest.test_case "broken-helper-uaf" `Quick test_broken_helper_caught;
    Alcotest.test_case "sound-helper-passes" `Quick test_sound_helper_passes;
  ]
