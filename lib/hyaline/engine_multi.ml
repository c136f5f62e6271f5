(** The general multi-slot Hyaline engine (Fig. 3), generic over the head
    implementation (dwCAS or LL/SC) and over the flavour (plain §3.2 or
    robust "-S" §4.2 with birth eras, per-slot access eras, acks and
    optional adaptive slot resizing §4.3).

    Instantiated as Hyaline, Hyaline-S and their LL/SC twins in {!Hyaline}
    and {!Hyaline_s}. The retire side lives in {!Batch.Make}'s front-end,
    shared with the single-slot engine; this engine adds its directory's
    [k], the per-batch [Adjs] and the Fig. 3 insertion.

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
    front : 'a B.front;
    dir : 'a slot Dir.t;  (* the paper's k slots, not the registry's *)
    (* Metrics (plain atomics, invisible to the cost model). *)
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

  let data (n : 'a node) = B.data ~scheme:F.scheme_name n

  (* Fig. 5 enter: probe for a slot not poisoned by stalled threads; when
     all k slots are saturated either grow the directory (§4.3) or fall
     back to the starting slot (the capped behaviour of Fig. 10a). *)
  let rec probe_slot t start i tried k =
    let s = Dir.get t.dir i in
    if R.Atomic.get s.ack < t.front.cfg.ack_threshold then i
    else if tried + 1 < k then probe_slot t start ((i + 1) mod k) (tried + 1) k
    else if t.front.cfg.adaptive then begin
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

  let register ?tid t = B.register ?tid t.front
  let deregister t s = B.deregister t.front s

  let enter t =
    let sid = Smr.Slot_registry.ensure t.front.reg ~tid:(R.self ()) in
    let slot_idx = choose_slot t sid in
    let slot = Dir.get t.dir slot_idx in
    let seen = H.enter_faa slot.head in
    { sid; slot; slot_idx; handle = B.of_opt seen.hptr; access_seen = -1 }

  let traverse t slot first handle =
    B.traverse t.front ~ack:(if F.robust then slot.ack else B.no_ack) first
      handle

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
          B.adjust ~counters:t.front.counters curr (B.batch_of curr).adjs;
        if fresh then traverse t slot next handle
    | `Left -> if fresh then traverse t slot next handle

  let leave t g = leave_attempt t g.slot g.handle

  (* Fig. 3 trim: dereference everything retired since the handle without
     altering Head; the current first node becomes the new handle. *)
  let trim t g =
    Smr.Metrics.Counter.incr t.front.m_trims;
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
    let alloc = R.Atomic.get t.front.era in
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

  (* A node this guard validated stays covered until [leave]: a batch
     holding it has a minimum birth era at or below the access era that
     validated it, and that era only rises, so no retirer skips this slot
     for the batch. Basic Hyaline's slot reference alone covers it. *)
  let transfer (_ : _ t) (_ : _ guard) ~idx:_ (_ : _ node) = ()

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
            B.adjust ~counters:t.front.counters pred
              ((B.batch_of pred).adjs + seen.href)
        | None -> ());
        true
      end
      else begin
        Smr.Metrics.Counter.incr t.front.m_insert_retries;
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
      B.adjust ~counters:t.front.counters b.nodes.(0) !empty

  let create (cfg : Smr.Smr_intf.config) =
    let front =
      B.make_front ~scheme:F.scheme_name ~robust:F.robust ~adjs:Batch.adjs cfg
    in
    let t =
      {
        front;
        dir =
          Dir.create ~kmin:(next_pow2 cfg.slots) ~adaptive:cfg.adaptive
            ~make_slot;
        m_leave_retries = Smr.Metrics.Counter.make "leave_cas_retries";
        m_slot_grows = Smr.Metrics.Counter.make "slot_grows";
      }
    in
    front.slots <- (fun () -> Dir.k t.dir);
    front.insert <- (fun b k -> retire_batch t ~k b);
    t

  let alloc ?bytes t payload = B.alloc ?bytes t.front payload
  let retire t g n = B.retire t.front g.sid n
  let relieve t = B.relieve t.front
  let flush t = B.flush t.front

  (* Hyaline realises refresh as trim (§3.3). *)
  let refresh = trim

  let stats t = B.stats t.front
  let metrics t = B.metrics t.front [ t.m_leave_retries; t.m_slot_grows ]
end
