(** Targeted unit tests for individual scheme mechanisms, pinning down the
    behaviours the workload tests only exercise in aggregate: epoch
    advancement and blocking, hazard-pointer protection, era intervals,
    and the dwCAS head-tuple protocol. *)

module Sched = Smr_runtime.Scheduler
module Sim = Smr_runtime.Sim_runtime
module Cell = Smr_runtime.Sim_cell
open Test_support

(* ---- EBR: a reservation blocks exactly the nodes retired at or after
   it; leaving unblocks. *)
let test_ebr_blocking () =
  let cfg = { (test_cfg ~threads:2) with batch_size = 1 } in
  run_solo (fun () ->
      let t = Ebr.create cfg in
      (* Thread 0 retires a node while itself holding the only guard:
         its own reservation pins the node. *)
      let g = Ebr.enter t in
      let n = Ebr.alloc t 0 in
      Ebr.retire t g n;
      Ebr.flush t;
      Alcotest.(check int) "own reservation pins" 1
        (Smr.Smr_intf.unreclaimed (Ebr.stats t));
      Ebr.leave t g;
      Ebr.flush t;
      Alcotest.(check int) "free after leave" 0
        (Smr.Smr_intf.unreclaimed (Ebr.stats t)))

(* ---- HP: a published hazard pins exactly the hazarded node. *)
let test_hp_hazard_pins () =
  let cfg = { (test_cfg ~threads:2) with batch_size = 1 } in
  run_solo (fun () ->
      let t = Hp.create cfg in
      let protected_node = Hp.alloc t 1 in
      let cell = Sim.Atomic.make (Some protected_node) in
      let g_reader = Hp.enter t in
      let got =
        Hp.protect t g_reader ~idx:0
          ~read:(fun () -> Sim.Atomic.get cell)
          ~target:Smr.Smr_intf.of_option
      in
      Alcotest.(check bool) "protect returns the node" true
        (Test_support.phys_opt got (Some protected_node));
      (* A second guard retires both the hazarded node and another one. *)
      let g_writer = Hp.enter t in
      let other = Hp.alloc t 2 in
      Hp.retire t g_writer protected_node;
      Hp.retire t g_writer other;
      Hp.flush t;
      Alcotest.(check int) "only the hazarded node survives the scan" 1
        (Smr.Smr_intf.unreclaimed (Hp.stats t));
      Alcotest.(check int) "the hazarded node is alive" 1
        (Hp.data protected_node);
      Hp.leave t g_reader;
      Hp.leave t g_writer;
      Hp.flush t;
      Alcotest.(check int) "released after hazard cleared" 0
        (Smr.Smr_intf.unreclaimed (Hp.stats t)))

(* ---- HP: protect re-reads until the source is stable. *)
let test_hp_protect_validates () =
  let cfg = test_cfg ~threads:2 in
  run_solo (fun () ->
      let t = Hp.create cfg in
      let a = Hp.alloc t 10 and b = Hp.alloc t 20 in
      let cell = Sim.Atomic.make (Some a) in
      let g = Hp.enter t in
      let flips = ref 0 in
      (* The source flips once mid-protect; the result must be the value
         of a stable re-read, i.e. [b]. *)
      let got =
        Hp.protect t g ~idx:0
          ~read:(fun () ->
            incr flips;
            if !flips = 1 then Sim.Atomic.get cell
            else begin
              if !flips = 2 then Sim.Atomic.set cell (Some b);
              Sim.Atomic.get cell
            end)
          ~target:Smr.Smr_intf.of_option
      in
      Alcotest.(check int) "validated value is the stable one" 20
        (match got with Some n -> Hp.data n | None -> -1);
      Hp.leave t g)

(* ---- IBR: nodes with lifespans disjoint from every reservation are
   freed even while a thread is active. *)
let test_ibr_interval_disjoint () =
  let cfg = { (test_cfg ~threads:2) with batch_size = 1; era_freq = 1 } in
  run_solo (fun () ->
      let t = Ibr.create cfg in
      (* Old node: born in era e0, retired in era e0. *)
      let g0 = Ibr.enter t in
      let old_node = Ibr.alloc t 0 in
      Ibr.retire t g0 old_node;
      Ibr.leave t g0;
      (* Era advances with each allocation (freq = 1); a fresh guard's
         interval starts past the old node's lifespan. *)
      let _bump1 = Ibr.alloc t 0 in
      let _bump2 = Ibr.alloc t 0 in
      let g1 = Ibr.enter t in
      Ibr.flush t;
      Alcotest.(check int) "disjoint-lifespan node freed under active guard"
        0
        (Smr.Smr_intf.unreclaimed (Ibr.stats t));
      Ibr.leave t g1)

(* ---- HE: era reservation pins the spanned lifespan. *)
let test_he_reservation_pins () =
  let cfg = { (test_cfg ~threads:2) with batch_size = 1; era_freq = 1 } in
  run_solo (fun () ->
      let t = He.create cfg in
      let n = He.alloc t 7 in
      let cell = Sim.Atomic.make (Some n) in
      let g_reader = He.enter t in
      ignore
        (He.protect t g_reader ~idx:0
           ~read:(fun () -> Sim.Atomic.get cell)
           ~target:Smr.Smr_intf.of_option);
      let g_writer = He.enter t in
      He.retire t g_writer n;
      He.flush t;
      Alcotest.(check int) "reserved era pins the node" 1
        (Smr.Smr_intf.unreclaimed (He.stats t));
      He.leave t g_reader;
      He.flush t;
      Alcotest.(check int) "freed once the era reservation clears" 0
        (Smr.Smr_intf.unreclaimed (He.stats t));
      He.leave t g_writer)

(* ---- dwCAS head tuple protocol. *)
module Head = Hyaline_core.Head_dwcas.Make (Sim)

let test_head_dwcas_protocol () =
  run_solo (fun () ->
      let h = Head.make () in
      let v0 = Head.load h in
      Alcotest.(check int) "initial href" 0 v0.Hyaline_core.Head_intf.href;
      let pre = Head.enter_faa h in
      Alcotest.(check int) "faa old" 0 pre.Hyaline_core.Head_intf.href;
      let pre2 = Head.enter_faa h in
      Alcotest.(check int) "faa old 2" 1 pre2.Hyaline_core.Head_intf.href;
      (* Stale insert must fail; fresh one succeeds. A node is a boxed
         value: an immediate would read as the nil sentinel. *)
      let fresh = Head.load h in
      let node = ref 42 in
      Alcotest.(check bool) "stale view rejected" false
        (Head.try_insert h ~seen:v0 ~first:node);
      Alcotest.(check bool) "fresh view accepted" true
        (Head.try_insert h ~seen:fresh ~first:node);
      (* Two leaves: the second one detaches. *)
      let v = Head.load h in
      (match Head.try_leave h ~seen:v with
      | `Left -> ()
      | `Detached -> Alcotest.fail "not last: no detach"
      | `Fail -> Alcotest.fail "fresh leave must succeed");
      let v = Head.load h in
      (match Head.try_leave h ~seen:v with
      | `Detached -> ()
      | `Left -> Alcotest.fail "last leave detaches"
      | `Fail -> Alcotest.fail "fresh leave must succeed");
      let final = Head.load h in
      Alcotest.(check bool) "list detached" true
        (Smr.Smr_intf.is_nil final.Hyaline_core.Head_intf.hptr);
      Alcotest.(check int) "href zero" 0 final.href)

(* ---- Leaky protect is the identity on reads. *)
let test_leaky_protect_identity () =
  run_solo (fun () ->
      let t = Leaky.create (test_cfg ~threads:1) in
      let n = Leaky.alloc t 5 in
      let g = Leaky.enter t in
      let got =
        Leaky.protect t g ~idx:0
          ~read:(fun () -> Some n)
          ~target:Smr.Smr_intf.of_option
      in
      Alcotest.(check int) "identity read" 5
        (match got with Some n -> Leaky.data n | None -> -1);
      Leaky.leave t g)

(* ---- The auditor itself: double retire and use-after-free raise. *)
let test_auditor_detects_misuse () =
  run_solo (fun () ->
      let t = Ebr.create { (test_cfg ~threads:1) with batch_size = 1 } in
      let g = Ebr.enter t in
      let n = Ebr.alloc t 3 in
      Ebr.retire t g n;
      (match Ebr.retire t g n with
      | () -> Alcotest.fail "double retire must raise"
      | exception Invalid_argument _ -> ());
      Ebr.leave t g;
      Ebr.flush t;
      (* n is freed now: data must raise Use_after_free *)
      match Ebr.data n with
      | _ -> Alcotest.fail "use-after-free must raise"
      | exception Smr.Smr_intf.Use_after_free _ -> ())

(* ---- HE's reader protocol under a stalled reader. A [contains] whose
   first protect on an index finds the era its previous operation
   published must find that era still published: [leave] clears the
   reservations, so it must clear the owner copy too, or the operation
   skips the publish and traverses unprotected. The reader walks the
   whole list while the writer churns it in rounds, removing every key
   with a scan per retire ([batch_size = 1]); the era moves only every
   16 allocations, so most reader operations start on an unmoved era.
   Parking the reader mid-traversal lets a removal free a node under it.
   With the owner copy left set by [leave], this sweep hits a
   use-after-free at most stall points. *)
module He_list = Smr_ds.Harris_michael_list.Make (He)

let reader_stall_sweep (module L : Smr_ds.Ds_intf.CONC_SET) cfg =
  let keys = List.init 6 (fun i -> 10 * (i + 1)) in
  let program () =
    let l = L.create cfg in
    ( [
        (fun () ->
          for _ = 1 to 60 do
            ignore (L.contains l 65)
          done);
        (fun () ->
          for _ = 1 to 8 do
            List.iter (fun k -> ignore (L.insert l k)) keys;
            for _ = 1 to 25 do
              Sim.yield ()
            done;
            List.iter (fun k -> ignore (L.remove l k)) keys
          done);
        (* Keeps decisions coming while the reader is parked, so the fault
           plan's resume point is always reached. *)
        (fun () ->
          for _ = 1 to 3000 do
            Sim.yield ()
          done);
      ],
      fun () -> true )
  in
  for step = 1 to 80 do
    let at = 5 * step in
    match
      Smr_runtime.Explore.explore
        ~mode:(Smr_runtime.Explore.Random_walk { walks = 10 })
        ~seed:at
        ~faults:
          [ Smr_runtime.Explore.stall_at ~victim:0 ~at ~resume_at:(at + 500) () ]
        ~max_steps:max_int program
    with
    | Smr_runtime.Explore.Violation { message; _ } ->
        Alcotest.fail
          (Printf.sprintf "%s: reader parked at %d: %s" L.S.scheme_name at
             message)
    | Smr_runtime.Explore.Exhausted _ | Smr_runtime.Explore.Limit_reached _ ->
        ()
  done

let test_he_reader_stall_sweep () =
  reader_stall_sweep
    (module He_list)
    { (test_cfg ~threads:3) with Smr.Smr_intf.batch_size = 1; era_freq = 16 }

(* ---- The robust Hyaline reader path under a stalled reader. Hyaline-S
   starts each protect after the first from the access era its guard last
   validated, and Hyaline-1S from the owner's copy of its slot's era;
   either value must be one the slot really publishes, or a batch sealed
   at a later era skips the slot and is freed under the reader. The sweep
   above, tightened until a cache that is not published fails at about
   half the stall points: one slot and one node per batch, so every
   retire is an insert the skip rule judges, and an era move every second
   allocation, so a reader's cached era goes stale within one writer
   round. *)
module Hyaline_s_list = Smr_ds.Harris_michael_list.Make (Hyaline_s)
module Hyaline1s_list = Smr_ds.Harris_michael_list.Make (Hyaline1s)

let test_hyaline_s_reader_stall_sweep () =
  let cfg =
    {
      (test_cfg ~threads:3) with
      Smr.Smr_intf.batch_size = 1;
      slots = 1;
      era_freq = 2;
    }
  in
  reader_stall_sweep (module Hyaline_s_list) cfg;
  reader_stall_sweep (module Hyaline1s_list) cfg

(* ---- The same sweep over the NM tree, whose seek moves nodes it already
   protects between hazard roles with [S.transfer]. The robust Hyaline
   readers make a transfer free, relying on their access era only rising
   within an operation; IBR and HE keep a protect's charges, and IBR's
   raise of [upper] there is load-bearing (a transfer that does nothing
   fails this sweep at a few stall points). HP is left out: the seek can
   read a frozen edge of an unlinked parent, which HP's validating re-read
   does not catch. *)
let test_nm_tree_reader_stall_sweep () =
  let cfg =
    {
      (test_cfg ~threads:3) with
      Smr.Smr_intf.batch_size = 1;
      slots = 1;
      era_freq = 2;
    }
  in
  List.iter
    (fun (module S : SMR) ->
      reader_stall_sweep (module Smr_ds.Natarajan_mittal_tree.Make (S)) cfg)
    [
      (module Hyaline_s : SMR);
      (module Hyaline1s);
      (module Hyaline_core.Crystalline_l.Make (Sim));
      (module Hyaline_core.Crystalline_w.Make (Sim));
      (module Ibr);
      (module He);
    ]

(* ---- Charged ops of one traversal. A lone thread's [contains] over a
   [k]-node list, with no allocation in flight (so the era holds): HE
   publishes at most once per hazard index it uses, not once per node,
   while HP and IBR keep their per-node sequences exactly. The robust
   Hyaline readers charge the pointer and era reads per node plus one
   raise of the access era: Hyaline-S reads its slot's shared era once,
   on the first protect, and raises it by CAS; Hyaline-1S and
   Crystalline-L never read it, and raise it by a plain store.
   Crystalline-W still reads it on every protect (helpers write it too),
   and basic Hyaline charges only the pointer reads. *)
let contains_counts (module L : Smr_ds.Ds_intf.CONC_SET) ~k =
  run_solo (fun () ->
      let l = L.create (test_cfg ~threads:1) in
      for key = 1 to k do
        ignore (L.insert l key)
      done;
      let g = L.enter l in
      let before = Cell.snapshot_counts () in
      ignore (L.contains_with l g k);
      let d = Cell.diff_counts ~now:(Cell.snapshot_counts ()) ~past:before in
      L.leave l g;
      d)

let traversal_counts (module S : SMR) ~k =
  contains_counts (module Smr_ds.Harris_michael_list.Make (S)) ~k

let test_traversal_charged_ops () =
  let k = 32 in
  let he = traversal_counts (module He) ~k in
  Alcotest.(check bool)
    (Printf.sprintf "HE: %d writes for %d nodes, at most one per index (3)"
       he.Cell.writes k)
    true (he.Cell.writes <= 3);
  List.iter
    (fun (name, m, expected) ->
      Alcotest.(check (list int))
        (name ^ ": per-class op counts, one sequence per node")
        expected
        (classes (traversal_counts m ~k)))
    [
      ("Epoch", (module Ebr : SMR), [ 33; 0; 0; 0; 0; 0; 0; 0 ]);
      ("HP", (module Hp : SMR), [ 65; 33; 0; 0; 0; 0; 0; 0 ]);
      ("HE", (module He : SMR), [ 69; 3; 0; 0; 0; 0; 0; 0 ]);
      ("IBR", (module Ibr : SMR), [ 99; 0; 0; 0; 0; 0; 0; 0 ]);
      ("Hyaline", (module Hyaline : SMR), [ 33; 0; 0; 0; 0; 0; 0; 0 ]);
      ("Hyaline-S", (module Hyaline_s : SMR), [ 70; 0; 0; 1; 0; 0; 0; 0 ]);
      ("Hyaline-1S", (module Hyaline1s : SMR), [ 68; 1; 0; 0; 0; 0; 0; 0 ]);
      ( "Crystalline-L",
        (module Hyaline_core.Crystalline_l.Make (Sim) : SMR),
        [ 68; 1; 0; 0; 0; 0; 0; 0 ] );
      ( "Crystalline-W",
        (module Hyaline_core.Crystalline_w.Make (Sim) : SMR),
        [ 102; 0; 0; 1; 0; 0; 0; 0 ] );
    ]

(* ---- Charged ops of one skip-list [contains] by a lone thread, after
   inserting 1..32, for the six benchmark schemes. With the list pin
   above this fixes every charged call a traversal makes, so a change to
   the structures' node layout cannot move a schedule silently. *)
let test_skiplist_charged_ops () =
  let k = 32 in
  List.iter
    (fun (name, (module S : SMR), expected) ->
      Alcotest.(check (list int))
        (name ^ ": per-class op counts of a skip-list contains")
        expected
        (classes (contains_counts (module Smr_ds.Skiplist.Make (S)) ~k)))
    [
      ("Epoch", (module Ebr : SMR), [ 20; 0; 0; 0; 0; 0; 0; 0 ]);
      ("HP", (module Hp : SMR), [ 28; 20; 0; 0; 0; 0; 0; 0 ]);
      ("HE", (module He : SMR), [ 43; 3; 0; 0; 0; 0; 0; 0 ]);
      ("IBR", (module Ibr : SMR), [ 60; 0; 0; 0; 0; 0; 0; 0 ]);
      ("Hyaline", (module Hyaline : SMR), [ 20; 0; 0; 0; 0; 0; 0; 0 ]);
      ("Hyaline-S", (module Hyaline_s : SMR), [ 41; 0; 0; 0; 0; 0; 0; 0 ]);
    ]

(* ---- Charged ops of one NM-tree [contains] by a lone thread, after
   inserting 1..32 (so the era holds). The seek moves nodes it already
   protects between hazard roles with [S.transfer]: HP publishes the
   hazard, HE and IBR charge a protect whose read is constant, and the
   robust Hyaline readers charge nothing, so they pay only for the edges
   they read. The non-robust schemes charge only the pointer reads. *)
let test_nm_tree_transfer_charged_ops () =
  let k = 32 in
  List.iter
    (fun (name, (module S : SMR), expected) ->
      Alcotest.(check (list int))
        (name ^ ": per-class op counts of an NM-tree contains")
        expected
        (classes
           (contains_counts (module Smr_ds.Natarajan_mittal_tree.Make (S)) ~k)))
    [
      ("Leaky", (module Leaky : SMR), [ 34; 0; 0; 0; 0; 0; 0; 0 ]);
      ("Epoch", (module Ebr : SMR), [ 34; 0; 0; 0; 0; 0; 0; 0 ]);
      ("HP", (module Hp : SMR), [ 68; 131; 0; 0; 0; 0; 0; 0 ]);
      ("HE", (module He : SMR), [ 169; 4; 0; 0; 0; 0; 0; 0 ]);
      ("IBR", (module Ibr : SMR), [ 296; 0; 0; 0; 0; 0; 0; 0 ]);
      ("Hyaline", (module Hyaline : SMR), [ 34; 0; 0; 0; 0; 0; 0; 0 ]);
      ( "Hyaline/llsc",
        (module Hyaline_llsc : SMR),
        [ 34; 0; 0; 0; 0; 0; 0; 0 ] );
      ("Hyaline-1", (module Hyaline1 : SMR), [ 34; 0; 0; 0; 0; 0; 0; 0 ]);
      ("Hyaline-S", (module Hyaline_s : SMR), [ 72; 0; 0; 1; 0; 0; 0; 0 ]);
      ( "Hyaline-S/llsc",
        (module Hyaline_s_llsc : SMR),
        [ 72; 0; 0; 1; 0; 0; 0; 0 ] );
      ("Hyaline-1S", (module Hyaline1s : SMR), [ 70; 1; 0; 0; 0; 0; 0; 0 ]);
      ( "Crystalline-L",
        (module Hyaline_core.Crystalline_l.Make (Sim) : SMR),
        [ 70; 1; 0; 0; 0; 0; 0; 0 ] );
      ( "Crystalline-W",
        (module Hyaline_core.Crystalline_w.Make (Sim) : SMR),
        [ 105; 0; 0; 1; 0; 0; 0; 0 ] );
    ]

(* ---- Charged ops of the slot directory. A lone thread's empty
   [enter]+[leave], and the retire that seals a batch ([test_cfg]: 8
   retires, k = 4, so the batch skips three empty slots). A non-adaptive
   directory never changes after [create], so it charges nothing: only
   the heads (and, on -S, the access and ack eras) are read. An adaptive
   one reads its [k] cell on every enter and seal, as in Fig. 6. *)
let directory_counts (module S : SMR) cfg =
  run_solo (fun () ->
      let t = S.create cfg in
      let counted f =
        let before = Cell.snapshot_counts () in
        f ();
        classes (Cell.diff_counts ~now:(Cell.snapshot_counts ()) ~past:before)
      in
      let pair = counted (fun () -> S.leave t (S.enter t)) in
      let g = S.enter t in
      let nodes = Array.init cfg.Smr.Smr_intf.batch_size (S.alloc t) in
      let last = Array.length nodes - 1 in
      for i = 0 to last - 1 do
        S.retire t g nodes.(i)
      done;
      let seal = counted (fun () -> S.retire t g nodes.(last)) in
      S.leave t g;
      (pair, seal))

let test_directory_charged_ops () =
  List.iter
    (fun (name, m, adaptive, pair, seal) ->
      let cfg = { (test_cfg ~threads:1) with Smr.Smr_intf.adaptive } in
      let got_pair, got_seal = directory_counts m cfg in
      let label what =
        Printf.sprintf "%s (adaptive=%b): per-class op counts of %s" name
          adaptive what
      in
      Alcotest.(check (list int)) (label "an empty enter+leave") pair got_pair;
      Alcotest.(check (list int)) (label "the sealing retire") seal got_seal)
    [
      ( "Hyaline", (module Hyaline : SMR), false,
        [ 2; 0; 0; 2; 0; 0; 0; 0 ], [ 4; 0; 1; 1; 0; 1; 0; 0 ] );
      ( "Hyaline/llsc", (module Hyaline_llsc : SMR), false,
        [ 5; 0; 0; 2; 0; 0; 0; 0 ], [ 6; 0; 1; 1; 0; 1; 0; 0 ] );
      ( "Hyaline-S", (module Hyaline_s : SMR), false,
        [ 3; 0; 0; 2; 0; 0; 0; 0 ], [ 5; 0; 1; 1; 0; 2; 0; 0 ] );
      ( "Hyaline-S/llsc", (module Hyaline_s_llsc : SMR), false,
        [ 6; 0; 0; 2; 0; 0; 0; 0 ], [ 7; 0; 1; 1; 0; 2; 0; 0 ] );
      ( "Hyaline", (module Hyaline : SMR), true,
        [ 3; 0; 0; 2; 0; 0; 0; 0 ], [ 5; 0; 1; 1; 0; 1; 0; 0 ] );
      ( "Hyaline/llsc", (module Hyaline_llsc : SMR), true,
        [ 6; 0; 0; 2; 0; 0; 0; 0 ], [ 7; 0; 1; 1; 0; 1; 0; 0 ] );
      ( "Hyaline-S", (module Hyaline_s : SMR), true,
        [ 4; 0; 0; 2; 0; 0; 0; 0 ], [ 6; 0; 1; 1; 0; 2; 0; 0 ] );
      ( "Hyaline-S/llsc", (module Hyaline_s_llsc : SMR), true,
        [ 7; 0; 0; 2; 0; 0; 0; 0 ], [ 8; 0; 1; 1; 0; 2; 0; 0 ] );
    ]

(* ---- Scan policy of the four limbo baselines. A lone thread with
   [batch_size = 4] and [era_freq = 1] protects its first node, then
   retires that node and eleven fresh ones (3 x batch_size). HP scans
   whenever its limbo holds [batch_size] nodes, so the hazarded survivor
   counts toward the next trigger; Epoch, HE and IBR scan every
   [batch_size] retires, survivors or not. Epoch's own reservation pins
   every node it retires; HE's published era and IBR's interval cover
   only the protected node's lifespan. Pins the scan count, the nodes
   scanned and the charged op classes of the twelve retires. *)
let scan_policy_counts (module S : SMR) =
  let cfg =
    { (test_cfg ~threads:1) with Smr.Smr_intf.batch_size = 4; era_freq = 1 }
  in
  run_solo (fun () ->
      let t = S.create cfg in
      let g = S.enter t in
      let pinned = S.alloc t 0 in
      let cell = Sim.Atomic.make (Some pinned) in
      ignore
        (S.protect t g ~idx:0
           ~read:(fun () -> Sim.Atomic.get cell)
           ~target:Smr.Smr_intf.of_option);
      let nodes = pinned :: List.init 11 (fun i -> S.alloc t (i + 1)) in
      let before = Cell.snapshot_counts () in
      List.iter (S.retire t g) nodes;
      let ops =
        classes (Cell.diff_counts ~now:(Cell.snapshot_counts ()) ~past:before)
      in
      let m = S.metrics t in
      let series name =
        Option.value (Smr.Metrics.series_value m name) ~default:(-1)
      in
      S.leave t g;
      (series "scans", series "scanned_nodes", ops))

let test_limbo_scan_policy () =
  List.iter
    (fun (name, m, scans, scanned, ops) ->
      let got_scans, got_scanned, got_ops = scan_policy_counts m in
      Alcotest.(check int) (name ^ ": scans") scans got_scans;
      Alcotest.(check int) (name ^ ": scanned_nodes") scanned got_scanned;
      Alcotest.(check (list int))
        (name ^ ": per-class op counts of the twelve retires")
        ops got_ops)
    [
      ("Epoch", (module Ebr : SMR), 3, 24, [ 21; 0; 0; 1; 0; 0; 0; 0 ]);
      ("HP", (module Hp : SMR), 3, 12, [ 24; 0; 0; 0; 0; 0; 0; 0 ]);
      ("HE", (module He : SMR), 3, 14, [ 36; 0; 0; 0; 0; 0; 0; 0 ]);
      ("IBR", (module Ibr : SMR), 3, 14, [ 18; 0; 0; 0; 0; 0; 0; 0 ]);
    ]

(* ---- The background reclaimer's cross-slot scan. Three registered
   threads: a reader protects the node in a shared cell and uses it six
   steps later, a writer unlinks and retires that node, and a reclaimer
   calls [relieve], which scans the writer's slot. A scan's reservation
   reads yield, so the writer can retire the node while the reclaimer is
   still reading, after it read the reader's reservation but before the
   reader's protect published it. A scan must free only nodes retired
   before its snapshot began; one that partitions the slot's limbo as it
   stands after the snapshot frees the reader's node. With [~depart] the
   reader then leaves and the writer leaves and deregisters, possibly
   while the reclaimer still holds its limbo: whatever that scan keeps
   must still reach a live thread, so a quiescent [flush] afterwards
   frees everything. The reclaimer scans the reader's slot first; for HP
   and HE that snapshot reads every thread's [hp_indices] reservations,
   so there the reader and writer first yield [lag] times to meet the
   scan of the writer's slot (with no lag, a scan that judges the nodes
   retired after its snapshot began goes uncaught on HP and HE). Counts, out of 20,000 seeds, those on which
   the reader touched a freed node and those that leaked a node. *)
let relieve_race (module S : SMR) ~lag ~depart =
  let cfg =
    {
      (test_cfg ~threads:3) with
      Smr.Smr_intf.batch_size = 1000;
      era_freq = 1000;
    }
  in
  let uafs = ref 0 and leaks = ref 0 in
  for seed = 0 to 19_999 do
    let t = S.create cfg in
    let slots = Array.init 3 (fun tid -> S.register ~tid t) in
    let cell = Sim.Atomic.make (Some (S.alloc t 0)) in
    let sched = Sched.create ~seed () in
    ignore
      (Sched.spawn sched (fun () ->
           for _ = 1 to lag do
             Sched.step 1
           done;
           let g = S.enter t in
           let got =
             S.protect t g ~idx:0
               ~read:(fun () -> Sim.Atomic.get cell)
               ~target:Smr.Smr_intf.of_option
           in
           for _ = 1 to 6 do
             Sched.step 1
           done;
           (match got with
           | Some n -> (
               try ignore (S.data n)
               with Smr.Smr_intf.Use_after_free _ -> incr uafs)
           | None -> ());
           if depart then S.leave t g));
    ignore
      (Sched.spawn sched (fun () ->
           for _ = 1 to lag do
             Sched.step 1
           done;
           let g = S.enter t in
           Sched.step 1;
           (match Sim.Atomic.exchange cell None with
           | Some n -> S.retire t g n
           | None -> ());
           if depart then begin
             S.leave t g;
             S.deregister t slots.(1)
           end));
    ignore (Sched.spawn sched (fun () -> S.relieve t));
    (match Sched.run sched with
    | Sched.All_finished -> ()
    | Sched.Budget_exhausted | Sched.Only_stalled ->
        Alcotest.fail "simulated threads did not finish");
    if depart then begin
      S.flush t;
      if Smr.Smr_intf.unreclaimed (S.stats t) > 0 then incr leaks
    end
  done;
  (!uafs, !leaks)

let test_relieve_cross_slot_race () =
  List.iter
    (fun (name, m, lag) ->
      List.iter
        (fun depart ->
          let uafs, leaks = relieve_race m ~lag ~depart in
          let label what =
            Printf.sprintf "%s (depart=%b): seeds on which %s" name depart
              what
          in
          Alcotest.(check int) (label "relieve freed a protected node") 0 uafs;
          Alcotest.(check int) (label "a node leaked past flush") 0 leaks)
        [ false; true ])
    [
      ("Epoch", (module Ebr : SMR), 0);
      ("HP", (module Hp : SMR), 3 * Smr.Smr_intf.hp_indices);
      ("HE", (module He : SMR), 3 * Smr.Smr_intf.hp_indices);
      ("IBR", (module Ibr : SMR), 0);
    ]

let suite =
  [
    Alcotest.test_case "ebr-blocking" `Quick test_ebr_blocking;
    Alcotest.test_case "limbo-scan-policy" `Quick test_limbo_scan_policy;
    Alcotest.test_case "relieve-cross-slot-race" `Quick
      test_relieve_cross_slot_race;
    Alcotest.test_case "hp-hazard-pins" `Quick test_hp_hazard_pins;
    Alcotest.test_case "hp-protect-validates" `Quick test_hp_protect_validates;
    Alcotest.test_case "ibr-interval-disjoint" `Quick
      test_ibr_interval_disjoint;
    Alcotest.test_case "he-reservation-pins" `Quick test_he_reservation_pins;
    Alcotest.test_case "he-reader-stall-sweep" `Quick
      test_he_reader_stall_sweep;
    Alcotest.test_case "hyaline-s-reader-stall-sweep" `Quick
      test_hyaline_s_reader_stall_sweep;
    Alcotest.test_case "nm-tree-reader-stall-sweep" `Quick
      test_nm_tree_reader_stall_sweep;
    Alcotest.test_case "traversal-charged-ops" `Quick
      test_traversal_charged_ops;
    Alcotest.test_case "skiplist-charged-ops" `Quick
      test_skiplist_charged_ops;
    Alcotest.test_case "nm-tree-transfer-charged-ops" `Quick
      test_nm_tree_transfer_charged_ops;
    Alcotest.test_case "directory-charged-ops" `Quick
      test_directory_charged_ops;
    Alcotest.test_case "head-dwcas-protocol" `Quick test_head_dwcas_protocol;
    Alcotest.test_case "leaky-protect-identity" `Quick
      test_leaky_protect_identity;
    Alcotest.test_case "auditor-detects-misuse" `Quick
      test_auditor_detects_misuse;
  ]
