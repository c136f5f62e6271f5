(** The general multi-slot Hyaline engine (Fig. 3), generic over the head
    implementation (dwCAS or LL/SC) and over the flavour (plain §3.2 or
    robust "-S" §4.2 with birth eras, per-slot access eras, acks and
    optional adaptive slot resizing §4.3).

    Instantiated as [Hyaline], [Hyaline_s] and their LL/SC twins in
    {!Variants}.

    Hot-path layout (DESIGN.md §15): slot-list links and guard handles are
    plain nodes with {!Batch.Make.nil} standing in for "no node" — the head
    views keep their option type (the boxed view record is what the dwCAS
    emulation compares), and the conversion happens once per load at the
    engine boundary. Pending batches accumulate in a reusable per-thread
    array, and sealed batch records are pooled, so the steady-state
    retire/seal path performs no OCaml allocation. *)

(* Shared head-tuple record type. *)
open Head_intf

module Make
    (R : Smr_runtime.Runtime_intf.S)
    (H : Head_intf.HEAD_OPS with module R = R)
    (F : Hyaline_intf.FLAVOR) =
struct
  let scheme_name = F.scheme_name
  let robust = F.robust

  module R = R
  module B = Batch.Make (R)
  module Dir = Slot_directory.Make (R)

  type 'a node = 'a B.node

  type 'a slot = {
    head : 'a B.node H.t;
    access : int R.Atomic.t;  (* per-slot access era (Fig. 5) *)
    ack : int R.Atomic.t;  (* stalled-slot detector (Fig. 5) *)
  }

  type 'a t = {
    cfg : Smr.Smr_intf.config;
    counters : Smr.Lifecycle.counters;
    (* Thread-lifecycle bookkeeping only (§2.4 transparency): join/leave
       never touch a simulated cell. The registry recycles the dense
       indices of the per-thread pending-batch array; the slot directory
       below is the paper's k-slot structure and is unrelated. *)
    reg : Smr.Slot_registry.t;
    dir : 'a slot Dir.t;
    era : int R.Atomic.t;  (* AllocEra *)
    alloc_clock : int Stdlib.Atomic.t;
    pending : 'a B.pending array;  (* per-thread batch under construction *)
    pool : 'a B.pool;  (* recycled batch records *)
    mutable on_pressure : unit -> unit;
        (* [relieve_pressure t], built once at create so the allocation
           path does not close over [t] per node *)
    (* Metrics (plain atomics, invisible to the cost model). *)
    m_sealed : Smr.Metrics.Counter.t;
    m_sealed_nodes : Smr.Metrics.Counter.t;
    m_trims : Smr.Metrics.Counter.t;
    m_insert_retries : Smr.Metrics.Counter.t;
    m_leave_retries : Smr.Metrics.Counter.t;
    m_slot_grows : Smr.Metrics.Counter.t;
  }

  type 'a guard = {
    sid : int;  (* registered slot id, indexing [pending] *)
    slot : 'a slot;
    slot_idx : int;
    handle : 'a B.node;  (* nil when the thread entered on an empty list *)
    mutable access_seen : int;
        (* the robust flavour's last validated lower bound on
           [slot.access]; -1 until the operation's first [protect] *)
  }

  let next_pow2 n =
    let rec go p = if p >= n then p else go (2 * p) in
    go 1

  let make_slot _ =
    { head = H.make (); access = R.Atomic.make 0; ack = R.Atomic.make 0 }

  let current_slots t = Dir.k t.dir

  let data (n : 'a node) =
    Smr.Lifecycle.check_not_freed ~scheme:F.scheme_name ~what:"data" n.state;
    n.payload

  (* Fig. 5 enter: probe for a slot not poisoned by stalled threads; when
     all k slots are saturated either grow the directory (§4.3) or fall
     back to the starting slot (the capped behaviour of Fig. 10a). *)
  let rec probe_slot t start i tried k =
    let s = Dir.get t.dir i in
    if R.Atomic.get s.ack < t.cfg.ack_threshold then i
    else if tried + 1 < k then probe_slot t start ((i + 1) mod k) (tried + 1) k
    else if t.cfg.adaptive then begin
      Dir.grow t.dir ~from:k;
      let k' = Dir.k t.dir in
      if k' > k then begin
        Smr.Metrics.Counter.incr t.m_slot_grows;
        probe_slot t start k 0 k'
      end
      else start
    end
    else start

  let choose_slot t tid =
    let k = Dir.k t.dir in
    let start = tid mod k in
    if not F.robust then start
    else probe_slot t start start 0 k

  (* Free join/leave, as in the single-slot engine: a departing thread's
     unsealed pending batch stays with its recycled index and is drained
     by [flush] at teardown. *)
  let register ?tid t =
    let tid = match tid with Some tid -> tid | None -> R.self () in
    Smr.Slot_registry.register t.reg ~tid

  let deregister t s = Smr.Slot_registry.release t.reg s

  let enter t =
    let sid = Smr.Slot_registry.ensure t.reg ~tid:(R.self ()) in
    let slot_idx = choose_slot t sid in
    let slot = Dir.get t.dir slot_idx in
    let seen = H.enter_faa slot.head in
    { sid; slot; slot_idx; handle = B.of_opt seen.hptr; access_seen = -1 }

  (* Fig. 3 traverse, plus the Fig. 5 ack decrement for the robust flavour.
     Decrements every node from [first] through [handle] inclusive; batches
     whose NRef reaches zero are freed afterwards, in FIFO order (§4.1's
     deferred deallocation). *)
  (* Ack debits must equal the credits this thread accumulated (+1 per
     batch inserted during its presence, Fig. 5 line 16). The current
     first node is decremented through the HRef CAS, never visited here,
     so its debit is carried by the handle node when the traversal ends
     there — and by the list end when it runs off a Null instead (the
     thread entered on an empty or since-detached list). Counting visited
     nodes plus one for a Null terminator makes every slot's Ack sum to
     exactly the unacknowledged references of its stalled occupants.
     Returns [(count, to_free)]; the list holds zero-NRef batches in
     reverse detection order. *)
  let rec traverse_go count to_free curr handle =
    if B.is_nil curr then (count + 1, to_free)
    else begin
      Smr.Lifecycle.check_not_freed ~scheme:F.scheme_name ~what:"traverse"
        curr.B.state;
      let next = R.Atomic.get curr.B.next in
      let b = B.batch_of curr in
      let to_free =
        if R.Atomic.fetch_and_add b.nref (-1) = 1 then b :: to_free
        else to_free
      in
      if B.same_node curr handle then (count + 1, to_free)
      else traverse_go (count + 1) to_free next handle
    end

  let traverse t slot first handle =
    let count, to_free = traverse_go 0 [] first handle in
    if F.robust && count > 0 then
      ignore (R.Atomic.fetch_and_add slot.ack (-count));
    List.iter (B.free_batch ~counters:t.counters) (List.rev to_free)

  (* Fig. 3 leave. *)
  let rec leave_attempt t slot handle =
    let seen = H.load slot.head in
    let curr = B.of_opt seen.hptr in
    let fresh = not (B.same_node curr handle) in
    let next =
      if fresh && not (B.is_nil curr) then R.Atomic.get curr.B.next
      else B.nil ()
    in
    match H.try_leave slot.head ~seen with
    | `Fail ->
        Smr.Metrics.Counter.incr t.m_leave_retries;
        leave_attempt t slot handle
    | `Detached ->
        (* The last thread detached the list: treat the ex-first node as a
           predecessor and grant it its slot's Adjs (Fig. 3 lines 16-17,
           with the per-batch Adjs of §4.3). *)
        if not (B.is_nil curr) then
          B.adjust ~counters:t.counters curr (B.batch_of curr).adjs;
        if fresh then traverse t slot next handle
    | `Left -> if fresh then traverse t slot next handle

  let leave t g = leave_attempt t g.slot g.handle

  (* Fig. 3 trim: dereference everything retired since the handle without
     altering Head; the current first node becomes the new handle. *)
  let trim t g =
    Smr.Metrics.Counter.incr t.m_trims;
    let seen = H.load g.slot.head in
    let curr = B.of_opt seen.hptr in
    if not (B.same_node curr g.handle) then begin
      let next =
        if B.is_nil curr then B.nil () else R.Atomic.get curr.B.next
      in
      traverse t g.slot next g.handle
    end;
    { g with handle = curr }

  (* Fig. 5 touch: raise the slot's access era to at least [era]. *)
  let rec touch slot era =
    let a = R.Atomic.get slot.access in
    if a >= era then a
    else if R.Atomic.compare_and_set slot.access a era then era
    else touch slot era

  (* Fig. 5 deref for the robust flavour; a plain read otherwise (basic
     Hyaline needs no per-access work at all, §3). Access eras only rise,
     so a value this guard once validated stays a lower bound on
     [slot.access] for the rest of the operation: only the operation's
     first protect reads the shared era, later ones start from
     [g.access_seen] and [touch] only when the era clock moved past it
     (DESIGN.md §15 "Robust Hyaline reader path"). *)
  let rec protect_attempt t g read access =
    let v = read () in
    let alloc = R.Atomic.get t.era in
    if access >= alloc then begin
      g.access_seen <- access;
      v
    end
    else protect_attempt t g read (touch g.slot alloc)

  let protect t g ~idx:_ ~read ~target:_ =
    if not F.robust then read ()
    else
      let access =
        if g.access_seen < 0 then R.Atomic.get g.slot.access
        else g.access_seen
      in
      protect_attempt t g read access

  (* Fig. 3 retire (batch insertion into every active slot), with the
     Fig. 5 REF #1# stale-era skip and ack bump for the robust flavour.
     [insert_attempt] returns whether the batch node at [cursor] was
     actually inserted (false: the slot was skipped as inactive/stale). *)
  let rec insert_attempt t (b : 'a B.batch) slot cursor =
    let seen = H.load slot.head in
    let skip =
      seen.href = 0 || (F.robust && R.Atomic.get slot.access < b.B.min_birth)
    in
    if skip then false
    else begin
      let node = b.B.nodes.(cursor) in
      R.Atomic.set_plain node.B.next (B.of_opt seen.hptr);
      if H.try_insert slot.head ~seen ~first:node then begin
        if F.robust then ignore (R.Atomic.fetch_and_add slot.ack seen.href);
        (* REF #2#: adjust the predecessor with its own batch's Adjs
           plus the HRef snapshot. *)
        (match seen.hptr with
        | Some pred ->
            B.adjust ~counters:t.counters pred
              ((B.batch_of pred).adjs + seen.href)
        | None -> ());
        true
      end
      else begin
        Smr.Metrics.Counter.incr t.m_insert_retries;
        insert_attempt t b slot cursor
      end
    end

  let retire_batch t ~k (b : 'a B.batch) =
    let cursor = ref 1 in
    let empty = ref 0 in
    let skipped_any = ref false in
    for i = 0 to k - 1 do
      let slot = Dir.get t.dir i in
      if insert_attempt t b slot !cursor then incr cursor
      else begin
        skipped_any := true;
        empty := !empty + b.adjs
      end
    done;
    (* REF #3#: account for the empty slots on the batch itself. Note that
       when every slot was empty, [empty = k × Adjs ≡ 0] and the FAA frees
       the batch immediately — no thread can reference it. *)
    if !skipped_any then
      B.adjust ~counters:t.counters b.nodes.(0) !empty

  let seal_pending t (p : 'a B.pending) ~k =
    Smr.Metrics.Counter.incr t.m_sealed;
    Smr.Metrics.Counter.add t.m_sealed_nodes p.len;
    (* [B.seal] copies the buffer out before the reset below, and neither
       touches a cost point, so no concurrent retire can interleave on the
       cooperative runtime. *)
    let b =
      B.seal ~counters:t.counters ~pool:t.pool ~k ~adjs:(Batch.adjs k) p.buf
        p.len
    in
    p.len <- 0;
    retire_batch t ~k b

  (* Budget relief (DESIGN.md §9): seal the calling thread's own pending
     batch early, if it already holds the mandatory k+1 nodes — insertion
     lets every inactive slot skip it and frees whatever is unreferenced.
     Never pads with dummy nodes: that would recurse into the allocator
     under the very pressure we are relieving. *)
  let relieve_pressure t () =
    let sid = Smr.Slot_registry.ensure t.reg ~tid:(R.self ()) in
    let k = Dir.k t.dir in
    let p = t.pending.(sid) in
    if p.len > k then seal_pending t p ~k

  let create (cfg : Smr.Smr_intf.config) =
    let t =
      {
        cfg;
        counters =
          Smr.Lifecycle.make_counters ~mem:(Smr.Smr_intf.mem_config cfg) ();
        reg = Smr.Slot_registry.create ~capacity:cfg.max_threads;
        dir = Dir.create ~kmin:(next_pow2 cfg.slots) ~make_slot;
        era = R.Atomic.make 0;
        alloc_clock = Stdlib.Atomic.make 0;
        pending = Array.init cfg.max_threads (fun _ -> B.make_pending ());
        pool = B.make_pool ();
        on_pressure = ignore;
        m_sealed = Smr.Metrics.Counter.make "batches_sealed";
        m_sealed_nodes = Smr.Metrics.Counter.make "batch_nodes_sealed";
        m_trims = Smr.Metrics.Counter.make "trims";
        m_insert_retries = Smr.Metrics.Counter.make "insert_cas_retries";
        m_leave_retries = Smr.Metrics.Counter.make "leave_cas_retries";
        m_slot_grows = Smr.Metrics.Counter.make "slot_grows";
      }
    in
    t.on_pressure <- relieve_pressure t;
    t

  let alloc ?bytes t payload =
    let mem_bytes =
      B.node_overhead_bytes
      + Option.value bytes ~default:t.cfg.Smr.Smr_intf.node_bytes
    in
    R.alloc_point ~bytes:mem_bytes;
    let birth =
      if F.robust then begin
        (* Fig. 5 init_node; the allocation counter is global rather than
           per-thread — only the bump frequency matters (cf. Ebr). *)
        let c = Stdlib.Atomic.fetch_and_add t.alloc_clock 1 in
        if c mod t.cfg.era_freq = t.cfg.era_freq - 1 then R.Atomic.incr t.era;
        R.Atomic.get t.era
      end
      else 0
    in
    B.make_node ~bytes:mem_bytes ~relieve:t.on_pressure
      ~scheme:F.scheme_name ~counters:t.counters ~birth payload

  let retire t g n =
    Smr.Lifecycle.on_retire ~tally:false ~scheme:F.scheme_name n.B.state
      t.counters;
    let p = t.pending.(g.sid) in
    B.push_pending p n;
    let k = Dir.k t.dir in
    if p.len >= max t.cfg.batch_size (k + 1) then seal_pending t p ~k

  (* Mid-run reclaimer entry point: seal every pending batch that already
     holds the mandatory k+1 nodes, across all slots — [relieve_pressure]
     for the whole directory. Allocation-free; a batch still short of k+1
     is left to fill, never padded. *)
  let relieve t =
    let k = Dir.k t.dir in
    for sid = 0 to t.cfg.max_threads - 1 do
      let p = t.pending.(sid) in
      if p.len > k then seal_pending t p ~k
    done

  (* Finalize partial batches by padding with dummy nodes (§2.4: "they can
     be immediately finalized by allocating a finite number of dummy
     nodes"). Dummies run through the normal lifecycle so the books stay
     balanced. Only sound at quiescence. *)
  let flush t =
    let k = Dir.k t.dir in
    let needed = max t.cfg.batch_size (k + 1) in
    for sid = 0 to t.cfg.max_threads - 1 do
      let p = t.pending.(sid) in
      if p.len > 0 then begin
        let sample = p.buf.(p.len - 1).B.payload in
        while p.len < needed do
          let d = alloc t sample in
          Smr.Lifecycle.on_retire ~tally:false ~scheme:F.scheme_name
            d.B.state t.counters;
          B.push_pending p d
        done;
        seal_pending t p ~k
      end
    done

  (* Hyaline realises refresh as trim (�3.3). *)
  let refresh = trim

  let stats t = Smr.Lifecycle.stats t.counters

  let metrics t =
    Smr.Lifecycle.snapshot ~scheme:F.scheme_name
      ~series:
        (Smr.Metrics.series_of
           [
             t.m_sealed;
             t.m_sealed_nodes;
             t.m_trims;
             t.m_insert_retries;
             t.m_leave_retries;
             t.m_slot_grows;
           ]
        @ Smr.Slot_registry.series t.reg)
      t.counters
end
