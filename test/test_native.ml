(** True-parallelism stress: the same scheme/data-structure stacks over the
    native runtime ([Stdlib.Atomic] + [Domain]), 4 OS-preempted domains.
    Complements the simulated tests — here the interleavings are real and
    the memory model is the hardware's. *)

module Native = Smr_runtime.Native_runtime
module Runner = Smr_runtime.Native_runner

module type SMR = Smr.Smr_intf.SMR

module N_hyaline = Hyaline_core.Hyaline.Make (Native)
module N_hyaline_llsc = Hyaline_core.Hyaline.Make_llsc (Native)
module N_hyaline1 = Hyaline_core.Hyaline1.Make (Native)
module N_hyaline_s = Hyaline_core.Hyaline_s.Make (Native)
module N_hyaline1s = Hyaline_core.Hyaline1s.Make (Native)
module N_crystalline_l = Hyaline_core.Crystalline_l.Make (Native)
module N_crystalline_w = Hyaline_core.Crystalline_w.Make (Native)
module N_ebr = Smr.Ebr.Make (Native)
module N_hp = Smr.Hp.Make (Native)
module N_he = Smr.He.Make (Native)
module N_ibr = Smr.Ibr.Make (Native)

let cfg =
  {
    Smr.Smr_intf.default_config with
    max_threads = 4;
    slots = 4;
    batch_size = 8;
    era_freq = 8;
  }

module Make (S : SMR) = struct
  module Stack = Smr_ds.Treiber_stack.Make (S)
  module Map = Smr_ds.Michael_hashmap.Make (S)

  let test_stack_parallel () =
    let stack = Stack.create cfg in
    Runner.run ~threads:4 (fun tid ->
        for i = 1 to 2_000 do
          if (i + tid) land 1 = 0 then Stack.push stack ((tid * 10_000) + i)
          else ignore (Stack.pop stack)
        done);
    (* Quiescent drain on one domain. *)
    Native.set_self 0;
    while Stack.pop stack <> None do
      ()
    done;
    Stack.flush stack;
    Alcotest.(check int)
      (S.scheme_name ^ ": native quiescent reclamation")
      0
      (Smr.Smr_intf.unreclaimed (Stack.stats stack))

  let test_map_parallel_counting () =
    let map = Map.create ~buckets:64 cfg in
    let ins = Array.init 4 (fun _ -> Array.make 32 0) in
    let del = Array.init 4 (fun _ -> Array.make 32 0) in
    Runner.run ~threads:4 (fun tid ->
        let rng = Random.State.make [| tid; 77 |] in
        for _ = 1 to 2_000 do
          let key = Random.State.int rng 32 in
          if Random.State.bool rng then begin
            if Map.insert map key then
              ins.(tid).(key) <- ins.(tid).(key) + 1
          end
          else if Map.remove map key then
            del.(tid).(key) <- del.(tid).(key) + 1
        done);
    Native.set_self 0;
    for key = 0 to 31 do
      let balance = ref 0 in
      for tid = 0 to 3 do
        balance := !balance + ins.(tid).(key) - del.(tid).(key)
      done;
      Alcotest.(check bool)
        (Printf.sprintf "%s: key %d balance" S.scheme_name key)
        true
        (!balance = 0 || !balance = 1);
      Alcotest.(check bool)
        (Printf.sprintf "%s: key %d membership" S.scheme_name key)
        (!balance = 1) (Map.contains map key)
    done

  let suite tag =
    [
      Alcotest.test_case (tag ^ ":stack-parallel") `Quick test_stack_parallel;
      Alcotest.test_case (tag ^ ":map-counting") `Quick
        test_map_parallel_counting;
    ]
end

let native_schemes : (string * (module SMR)) list =
  [
    ("epoch", (module N_ebr));
    ("hp", (module N_hp));
    ("he", (module N_he));
    ("ibr", (module N_ibr));
    ("hyaline", (module N_hyaline));
    ("hyaline-llsc", (module N_hyaline_llsc));
    ("hyaline-s", (module N_hyaline_s));
    ("hyaline-1", (module N_hyaline1));
    ("hyaline-1s", (module N_hyaline1s));
    ("crystalline-l", (module N_crystalline_l));
    ("crystalline-w", (module N_crystalline_w));
  ]

(* A dereference allocates nothing: one thread inside one bracket, the
   [read] and [target] closures and the node built beforehand, and no
   allocation in flight, so every minor word counted across the loop is
   the scheme's own [protect]. Rotating three indices as the list does
   exercises HE's first-on-index publish and its published-era hits. *)
let test_protect_allocates_nothing () =
  let calls = 10_000 in
  List.iter
    (fun (name, (module S : SMR)) ->
      Native.set_self 0;
      let t = S.create cfg in
      let cell = Stdlib.Atomic.make (S.alloc t ()) in
      let read () = Stdlib.Atomic.get cell in
      let target n = n in
      let g = S.enter t in
      ignore (S.protect t g ~idx:0 ~read ~target);
      let before = Gc.minor_words () in
      for i = 1 to calls do
        ignore (S.protect t g ~idx:(i mod 3) ~read ~target)
      done;
      let words = Gc.minor_words () -. before in
      S.leave t g;
      let per_call = words /. float_of_int calls in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.3f minor words per protect <= 0.01" name
           per_call)
        true (per_call <= 0.01))
    native_schemes

(* Moving a protected node to another role allocates nothing either: HP
   publishes the bare node, HE and IBR charge a protect whose read is
   constant. *)
let test_transfer_allocates_nothing () =
  let calls = 10_000 in
  List.iter
    (fun (name, (module S : SMR)) ->
      Native.set_self 0;
      let t = S.create cfg in
      let n = S.alloc t () in
      let g = S.enter t in
      S.transfer t g ~idx:0 n;
      let before = Gc.minor_words () in
      for i = 1 to calls do
        S.transfer t g ~idx:(i mod 3) n
      done;
      let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
      S.leave t g;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.3f minor words per transfer <= 0.01" name
           per_call)
        true (per_call <= 0.01))
    [
      ("hp", (module N_hp : SMR));
      ("he", (module N_he));
      ("ibr", (module N_ibr));
    ]

(* A traversal allocates nothing per node it visits: a [contains] of the
   last key costs the same minor words over 16 nodes as over 256, on the
   list, the skip list, the NM tree (keys inserted in order make it a
   chain, so the walk visits every node) and Bonsai (balanced, so the
   walk grows by about four levels). What remains is per operation (the
   guard, the walk's reader and its result record), so a closure or a
   box built per hop shows as a gap of several words per node. The
   list's per-operation words are bounded too: the list is the
   native-list workload's structure, which allocated about 700 words per
   operation when every hop built a closure. Bonsai skips HP and HE,
   which it does not support. *)
let test_traversal_allocation () =
  let per_contains (module L : Smr_ds.Ds_intf.CONC_SET) n =
    Native.set_self 0;
    let l = L.create cfg in
    for key = 1 to n do
      ignore (L.insert l key)
    done;
    ignore (L.contains l n);
    let calls = 2_000 in
    let before = Gc.minor_words () in
    for _ = 1 to calls do
      ignore (L.contains l n)
    done;
    (Gc.minor_words () -. before) /. float_of_int calls
  in
  List.iter
    (fun (name, (module S : SMR)) ->
      List.iter
        (fun (ds, bound, set) ->
          let small = per_contains set 16 and large = per_contains set 256 in
          Alcotest.(check bool)
            (Printf.sprintf
               "%s %s: %.2f minor words per contains at 16 nodes, %.2f at \
                256 (within 0.5, at most %g)"
               name ds small large bound)
            true
            (Float.abs (large -. small) <= 0.5 && large <= bound))
        ([
           ( "list",
             50.,
             (module Smr_ds.Harris_michael_list.Make (S)
             : Smr_ds.Ds_intf.CONC_SET) );
           ("skiplist", Float.infinity, (module Smr_ds.Skiplist.Make (S)));
           ( "nm-tree",
             Float.infinity,
             (module Smr_ds.Natarajan_mittal_tree.Make (S)) );
         ]
        @
        if name = "hp" || name = "he" then []
        else [ ("bonsai", Float.infinity, (module Smr_ds.Bonsai_tree.Make (S))) ]
        ))
    native_schemes

(* An empty bracket allocates only its guard and the head records its
   CAS updates install: one thread, no retires in flight, so every minor
   word counted is [enter] and [leave] themselves — no slot-directory
   pair, no boxed leave result. The LL/SC head installs a fresh record
   per store-conditional, and the single-slot heads are one word each. *)
let test_enter_leave_allocation () =
  let pairs = 10_000 in
  List.iter
    (fun (name, bound, (module S : SMR)) ->
      Native.set_self 0;
      let t = S.create cfg in
      S.leave t (S.enter t);
      let before = Gc.minor_words () in
      for _ = 1 to pairs do
        S.leave t (S.enter t)
      done;
      let per_pair = (Gc.minor_words () -. before) /. float_of_int pairs in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.2f minor words per enter+leave <= %g" name
           per_pair bound)
        true (per_pair <= bound))
    [
      ("hyaline", 12., (module N_hyaline : SMR));
      ("hyaline-s", 12., (module N_hyaline_s));
      ("hyaline-llsc", 15., (module N_hyaline_llsc));
      ("hyaline-1", 6., (module N_hyaline1));
      ("hyaline-1s", 6., (module N_hyaline1s));
      ("crystalline-l", 6., (module N_crystalline_l));
      ("crystalline-w", 6., (module N_crystalline_w));
    ]

(* The retire path at steady state: one thread allocating and retiring
   8 nodes per bracket, measured after warm-up brackets have filled the
   batch pool and grown the pending buffer, so every minor word is the
   node itself plus what enter, leave, alloc, retire, seal, insertion and
   traverse add per pair — or, for the four limbo baselines, what the
   limbo push and each scan's snapshot and partition add. Each bound is
   the scheme's measured cost; a closure or a returned tuple on any of
   those paths pushes it over. *)
let test_retire_allocation () =
  let pairs = 200_000 and per_bracket = 8 in
  List.iter
    (fun (name, bound, (module S : SMR)) ->
      Native.set_self 0;
      let t = S.create cfg in
      let brackets n =
        for _ = 1 to n do
          let g = S.enter t in
          for i = 1 to per_bracket do
            S.retire t g (S.alloc t i)
          done;
          S.leave t g
        done
      in
      brackets 64;
      let before = Gc.minor_words () in
      brackets (pairs / per_bracket);
      let per_pair = (Gc.minor_words () -. before) /. float_of_int pairs in
      S.flush t;
      Alcotest.(check int)
        (name ^ ": flush reclaims everything")
        0
        (Smr.Smr_intf.unreclaimed (S.stats t));
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.3f minor words per alloc+retire <= %g" name
           per_pair bound)
        true (per_pair <= bound))
    [
      ("hyaline", 16.5, (module N_hyaline : SMR));
      ("hyaline-llsc", 17.75, (module N_hyaline_llsc));
      ("hyaline-s", 14.875, (module N_hyaline_s));
      ("hyaline-1", 17.375, (module N_hyaline1));
      ("hyaline-1s", 15.625, (module N_hyaline1s));
      ("crystalline-l", 15.625, (module N_crystalline_l));
      ("crystalline-w", 16.25, (module N_crystalline_w));
      ("epoch", 30.625, (module N_ebr));
      ("hp", 20.5, (module N_hp));
      ("he", 26.625, (module N_he));
      ("ibr", 37.875, (module N_ibr));
    ]

(* Batch-record pool: every domain that frees a batch pushes its record
   back, and every seal pops one, so two domains sealing and freeing
   against one pool must never be handed the same record. Each sealed
   record is claimed by a CAS on its (pooled, hence zero) [nref]; a
   record already claimed is a double hand-out. *)
module B = Hyaline_core.Batch.Make (Native)

let test_pool_two_domains () =
  let pool = B.make_pool () in
  let counters = Smr.Lifecycle.make_counters () in
  let cycles = 100_000 in
  let doubles =
    Runner.run_collect ~threads:2 (fun _ ->
        let buf = Array.make 4 (Smr.Smr_intf.nil ()) in
        let doubles = ref 0 in
        for _ = 1 to cycles do
          for i = 0 to 3 do
            let n =
              B.make_node ~bytes:0 ~relieve:ignore ~scheme:B.scheme ~counters
                ~birth:0 i
            in
            Smr.Lifecycle.on_retire ~tally:false ~scheme:B.scheme
              n.B.state counters;
            buf.(i) <- n
          done;
          let b = B.seal ~counters ~pool ~k:1 ~adjs:0 buf 4 in
          if Native.Atomic.compare_and_set b.B.nref 0 1 then begin
            Native.Atomic.set b.B.nref 0;
            B.free_batch ~counters b
          end
          else incr doubles
        done;
        !doubles)
  in
  Alcotest.(check int) "no batch record handed out twice" 0
    (Array.fold_left ( + ) 0 doubles);
  Alcotest.(check int)
    "every sealed node freed exactly once" (2 * cycles * 4)
    (Smr.Lifecycle.stats counters).Smr.Smr_intf.freed

let suite =
  Alcotest.test_case "batch-pool-2-domains" `Quick test_pool_two_domains
  :: Alcotest.test_case "protect-allocates-nothing" `Quick
       test_protect_allocates_nothing
  :: Alcotest.test_case "transfer-allocates-nothing" `Quick
       test_transfer_allocates_nothing
  :: Alcotest.test_case "traversal-allocation" `Quick
       test_traversal_allocation
  :: Alcotest.test_case "enter-leave-allocation" `Quick
       test_enter_leave_allocation
  :: Alcotest.test_case "retire-allocation" `Quick test_retire_allocation
  :: List.concat_map
    (fun (name, (module S : SMR)) ->
      let module T = Make (S) in
      T.suite name)
    [
      ("hyaline", (module N_hyaline : SMR));
      ("hyaline-llsc", (module N_hyaline_llsc));
      ("hyaline-1", (module N_hyaline1));
      ("hyaline-s", (module N_hyaline_s));
      ("hyaline-1s", (module N_hyaline1s));
      ("crystalline-l", (module N_crystalline_l));
      ("crystalline-w", (module N_crystalline_w));
      ("epoch", (module N_ebr));
      ("hp", (module N_hp));
      ("he", (module N_he));
      ("ibr", (module N_ibr));
    ]
