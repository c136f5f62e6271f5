(** Batches of retired nodes, the [Adjs] modular arithmetic (§3.2), and
    the retire front-end both Hyaline engines share ({!Make.front}).

    A batch groups [>= k + 1] retired nodes under a single reference
    counter [NRef]. The paper stores [NRef] in a dedicated node and links
    every node to it; here the equivalent shared structure is the
    {!type:batch} record itself (DESIGN.md §2). Per node the scheme keeps
    three words, as in the paper: the slot-list [next] link, the back
    pointer to the batch, and the birth era.

    [NRef] accounting uses wraparound arithmetic: with [k] slots
    (a power of two), [Adjs = 2{^63} / k], so a batch is fully adjusted —
    i.e. has accumulated [Adjs] from {i every} slot, making [k × Adjs ≡ 0] —
    before its counter can reach zero. OCaml native ints are 63-bit and
    modular, so the trick carries over verbatim one bit narrower.

    {b Memory layout} (DESIGN.md §15): slot-list links are plain
    ['a node R.Atomic.t] — the empty link is the {!Smr.Smr_intf.nil}
    sentinel, an immediate, so no [Some] box is built per link update.
    Batch records are mutable and pooled: a batch whose NRef accounting
    has fully completed returns to its owner's {!type:pool} and the next
    {!seal} reuses the record, its [nodes] array and its [nref] cell,
    making the steady-state seal path allocation-free (returning a record
    costs one cons cell). The pool is shared by every thread of an engine
    instance — any thread may free a batch and any thread may seal one —
    so it is an atomic stack (see {!type:pool}). *)

let log2 =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  fun n ->
    if n <= 0 then invalid_arg "Batch.log2";
    go 0 n

let is_power_of_two k = k > 0 && k land (k - 1) = 0

(** [adjs k] for [k] slots. [k = 1] degenerates to [0] by the same unsigned
    overflow the paper notes (§3.2). *)
let adjs k =
  if not (is_power_of_two k) then invalid_arg "Batch.adjs: k not a power of 2";
  if k = 1 then 0 else 1 lsl (Sys.int_size - log2 k)

module Make (R : Smr_runtime.Runtime_intf.S) = struct
  type 'a node = {
    payload : 'a;
    state : Smr.Lifecycle.cell;
    birth : int;  (** birth era (Hyaline-S/1S; 0 otherwise) *)
    next : 'a node R.Atomic.t;
        (** link in the retirement list of the one slot this node joins;
            nil when the node is last (or not yet linked) *)
    mutable batch : 'a batch;
        (** back pointer, set when the node's batch is finalized;
            the immediate-0 sentinel until then *)
  }

  and 'a batch = {
    nref : int R.Atomic.t;
    mutable nodes : 'a node array;
        (** used prefix [0, len): [nodes.(0)] plays the NRef-node role *)
    mutable len : int;
    mutable min_birth : int;
    mutable adjs : int;  (** frozen at retire time — adaptive resizing, §4.3 *)
    pool : 'a pool;  (** where this record parks between seals *)
  }

  (** Free-list of batch records whose NRef accounting has completed: a
      Treiber stack on a plain [Stdlib.Atomic], so pool hand-offs stay
      uncosted and never become simulator preemption points. Every push
      installs a fresh cons cell and a popped cell is never reinstalled,
      so a pop's CAS cannot succeed on a recycled head (no ABA). The nref
      of a pooled record is provably 0: every free site is an
      [fetch_and_add] whose result crossing zero triggered the free, so no
      reset (and no costed store) is needed on reuse. *)
  and 'a pool = 'a batch list Stdlib.Atomic.t

  let make_pool () : 'a pool = Stdlib.Atomic.make []

  (* Pop a pooled record, or build a fresh one on a miss. Returns the
     record itself, never an option, so a pool hit allocates nothing. *)
  let rec take pool =
    match Stdlib.Atomic.get pool with
    | [] ->
        {
          nref = R.Atomic.make 0;
          nodes = [||];
          len = 0;
          min_birth = 0;
          adjs = 0;
          pool;
        }
    | b :: rest as seen ->
        if Stdlib.Atomic.compare_and_set pool seen rest then b else take pool

  let rec give pool b =
    let seen = Stdlib.Atomic.get pool in
    if not (Stdlib.Atomic.compare_and_set pool seen (b :: seen)) then
      give pool b

  (** A thread's reusable retirement buffer: the used prefix [0, len) of
      [buf], oldest first ({!seal} restores the newest-first batch
      layout). Grows geometrically and is never shrunk. *)
  type 'a pending = { mutable buf : 'a node array; mutable len : int }

  let make_pending () = { buf = [||]; len = 0 }

  let push_pending p n =
    let cap = Array.length p.buf in
    if p.len = cap then begin
      let nbuf = Array.make (max 8 (2 * cap)) n in
      Array.blit p.buf 0 nbuf 0 p.len;
      p.buf <- nbuf
    end;
    Array.unsafe_set p.buf p.len n;
    p.len <- p.len + 1

  let scheme = "Hyaline"

  (* Per-node scheme overhead in modelled bytes: the slot-list link, the
     batch back pointer and the birth era (three words), plus the node's
     amortised share of the batch record (NRef + min_birth). *)
  let node_overhead_bytes = 40

  (* All labels required: no [Some] box per optional argument on the
     per-allocation hot path (the lifecycle side is {!Smr.Lifecycle.on_alloc_hot}
     for the same reason). [bytes = 0] means the arena's default node size. *)
  let make_node ~bytes ~relieve ~scheme ~counters ~birth payload =
    {
      payload;
      state = Smr.Lifecycle.on_alloc_hot ~bytes ~relieve ~scheme counters;
      birth;
      next = R.Atomic.make (Smr.Smr_intf.nil ());
      batch = Obj.magic 0;
    }

  let[@inline] batch_of n =
    let b = n.batch in
    if Obj.repr b == Obj.repr 0 then
      invalid_arg "Hyaline: node in a retirement list has no batch";
    b

  (* Finalize a batch from the used prefix [0, len) of [buf], a thread's
     reusable pending buffer in retirement order (oldest first). The batch
     keeps the paper's newest-first layout — [nodes.(i) = buf.(len - 1 - i)],
     so [nodes.(0)] (the NRef-node role) is the newest retirement, exactly
     as the old list-based accumulator produced. [adjs] is precomputed by
     the caller: [Batch.adjs k] for the multi-slot engine (frozen per
     batch, §4.3), unused (0) for Hyaline-1. Reuses a pooled record when
     one is available; only a pool miss allocates. *)
  let seal ~counters ~pool ~k ~adjs buf len =
    assert (len > k);
    Smr.Lifecycle.tally_retired counters len;
    let b = take pool in
    if Array.length b.nodes < len then b.nodes <- Array.make len buf.(0);
    let nodes = b.nodes in
    let mb = ref max_int in
    for i = 0 to len - 1 do
      let n = buf.(len - 1 - i) in
      Array.unsafe_set nodes i n;
      if n.birth < !mb then mb := n.birth;
      n.batch <- b
    done;
    b.len <- len;
    b.min_birth <- !mb;
    b.adjs <- adjs;
    b

  let free_batch ~counters b =
    let nodes = b.nodes in
    for i = 0 to b.len - 1 do
      Smr.Lifecycle.on_free ~scheme (Array.unsafe_get nodes i).state counters
    done;
    (* Drop the node references so the pooled record does not pin freed
       payloads until its next seal overwrites them. *)
    for i = 0 to b.len - 1 do
      Array.unsafe_set nodes i (Smr.Smr_intf.nil ())
    done;
    b.len <- 0;
    give b.pool b

  (* adjust (Fig. 3 lines 41-43): add [v] to the batch's NRef; the counter
     crossing zero means the batch is fully adjusted and unreferenced. *)
  let adjust ~counters n v =
    let b = batch_of n in
    if R.Atomic.fetch_and_add b.nref v = -v then free_batch ~counters b

  (** {2 The retire front-end}

      The retire side both engines share (DESIGN.md §15 "One retire
      front-end"). An engine keeps its slot type, enter, leave, trim,
      protect and batch insertion, and supplies four hooks at [create]:
      the slot count [k] ([slots]), the per-batch Adjs ([adjs]), insertion
      ([insert]) and the step run just before the era advances
      ([before_tick]). [slots] may be a charged read, so each entry point
      reads it once and hands that [k] on to the seal and the insertion. *)
  type 'a front = {
    cfg : Smr.Smr_intf.config;
    counters : Smr.Lifecycle.counters;
    (* Thread-lifecycle bookkeeping only (§2.4 transparency): join/leave
       never touch a simulated cell. The registry recycles the dense
       indices of the per-thread pending-batch array. *)
    reg : Smr.Slot_registry.t;
    era : int R.Atomic.t;  (* AllocEra *)
    alloc_clock : int Stdlib.Atomic.t;
    pending : 'a pending array;  (* per-thread batch under construction *)
    pool : 'a pool;  (* recycled batch records *)
    mutable on_pressure : unit -> unit;
        (* [relieve_pressure f], built once: no closure per allocation *)
    scheme : string;
    robust : bool;  (* birth eras on allocation (§4.2) *)
    adjs : int -> int;
    mutable slots : unit -> int;
    mutable insert : 'a batch -> int -> unit;
    mutable before_tick : unit -> unit;
    (* Metrics (plain atomics, invisible to the cost model). *)
    m_sealed : Smr.Metrics.Counter.t;
    m_sealed_nodes : Smr.Metrics.Counter.t;
    m_trims : Smr.Metrics.Counter.t;
    m_insert_retries : Smr.Metrics.Counter.t;
  }

  (* The Ack cell of an engine that keeps none: a sentinel like nil,
     compared physically and never debited. A real cell would take a
     simulator cell id and shift every later one. *)
  let no_ack : int R.Atomic.t = Obj.magic 0

  (* Fig. 3 traverse, plus the Fig. 5 ack decrement for the robust
     multi-slot flavour ([ack] is the slot's Ack, else {!no_ack}).
     Decrements every node from [first] through [handle] inclusive;
     batches whose NRef reaches zero are freed afterwards, in FIFO order
     (§4.1's deferred deallocation). *)
  (* Ack debits must equal the credits this thread accumulated (+1 per
     batch inserted during its presence, Fig. 5 line 16). The current
     first node is decremented through the HRef CAS, never visited here,
     so its debit is carried by the handle node when the traversal ends
     there — and by the list end when it runs off a Null instead (the
     thread entered on an empty or since-detached list). Counting visited
     nodes plus one for a Null terminator makes every slot's Ack sum to
     exactly the unacknowledged references of its stalled occupants.
     [to_free] holds zero-NRef batches in reverse detection order. The
     walk ends in [finish] rather than returning [(count, to_free)]: a
     returned pair is allocated per traverse. *)
  let rec walk f ack count to_free curr handle =
    if Smr.Smr_intf.is_nil curr then finish f ack (count + 1) to_free
    else begin
      Smr.Lifecycle.check_not_freed ~scheme:f.scheme ~what:"traverse"
        curr.state;
      let next = R.Atomic.get curr.next in
      let b = batch_of curr in
      let to_free =
        if R.Atomic.fetch_and_add b.nref (-1) = 1 then b :: to_free
        else to_free
      in
      if curr == handle then finish f ack (count + 1) to_free
      else walk f ack (count + 1) to_free next handle
    end

  and finish f ack count to_free =
    if ack != no_ack then ignore (R.Atomic.fetch_and_add ack (-count));
    List.iter (free_batch ~counters:f.counters) (List.rev to_free)

  let traverse f ~ack first handle = walk f ack 0 [] first handle

  let seal_pending (f : 'a front) (p : 'a pending) ~k =
    Smr.Metrics.Counter.incr f.m_sealed;
    Smr.Metrics.Counter.add f.m_sealed_nodes p.len;
    (* [seal] copies the buffer out before the reset below, and neither
       touches a cost point, so no concurrent retire can interleave on the
       cooperative runtime. *)
    let b =
      seal ~counters:f.counters ~pool:f.pool ~k ~adjs:(f.adjs k) p.buf p.len
    in
    p.len <- 0;
    f.insert b k

  (* Budget relief (DESIGN.md §9): seal the calling thread's own pending
     batch early, if it already holds the mandatory k+1 nodes — insertion
     lets every inactive slot skip it and frees whatever is unreferenced.
     Never pads with dummy nodes: that would recurse into the allocator
     under the very pressure we are relieving. *)
  let relieve_pressure f () =
    let p = f.pending.(Smr.Slot_registry.ensure f.reg ~tid:(R.self ())) in
    let k = f.slots () in
    if p.len > k then seal_pending f p ~k

  (* [slots], [insert] and [before_tick] start as placeholders: the
     engine's [create] sets them once it has built the slots they read.
     The front comes first so that its era cell takes the simulator cell
     id it always had, ahead of the slots' cells. *)
  let make_front ~scheme ~robust ~adjs (cfg : Smr.Smr_intf.config) =
    let f =
      {
        cfg;
        counters =
          Smr.Lifecycle.make_counters ~mem:(Smr.Smr_intf.mem_config cfg) ();
        reg = Smr.Slot_registry.create ~capacity:cfg.max_threads;
        era = R.Atomic.make 0;
        alloc_clock = Stdlib.Atomic.make 0;
        pending = Array.init cfg.max_threads (fun _ -> make_pending ());
        pool = make_pool ();
        on_pressure = ignore;
        scheme;
        robust;
        adjs;
        slots = (fun () -> 0);
        insert = (fun _ _ -> ());
        before_tick = ignore;
        m_sealed = Smr.Metrics.Counter.make "batches_sealed";
        m_sealed_nodes = Smr.Metrics.Counter.make "batch_nodes_sealed";
        m_trims = Smr.Metrics.Counter.make "trims";
        m_insert_retries = Smr.Metrics.Counter.make "insert_cas_retries";
      }
    in
    f.on_pressure <- relieve_pressure f;
    f

  let alloc ?bytes f payload =
    let mem_bytes =
      node_overhead_bytes
      + Option.value bytes ~default:f.cfg.Smr.Smr_intf.node_bytes
    in
    R.alloc_point ~bytes:mem_bytes;
    let birth =
      if f.robust then begin
        (* Fig. 5 init_node; the allocation counter is global rather than
           per-thread — only the bump frequency matters (cf. Ebr). *)
        let c = Stdlib.Atomic.fetch_and_add f.alloc_clock 1 in
        if c mod f.cfg.era_freq = f.cfg.era_freq - 1 then begin
          f.before_tick ();
          R.Atomic.incr f.era
        end;
        R.Atomic.get f.era
      end
      else 0
    in
    make_node ~bytes:mem_bytes ~relieve:f.on_pressure ~scheme:f.scheme
      ~counters:f.counters ~birth payload

  let retire f sid n =
    Smr.Lifecycle.on_retire ~tally:false ~scheme:f.scheme n.state f.counters;
    let p = f.pending.(sid) in
    push_pending p n;
    let k = f.slots () in
    if p.len >= max f.cfg.batch_size (k + 1) then seal_pending f p ~k

  (* Mid-run reclaimer entry point: seal every pending batch that already
     holds the mandatory k+1 nodes, across all slots — [relieve_pressure]
     for every thread. Allocation-free; a batch still short of k+1 is left
     to fill, never padded. *)
  let relieve f =
    let k = f.slots () in
    for sid = 0 to f.cfg.max_threads - 1 do
      let p = f.pending.(sid) in
      if p.len > k then seal_pending f p ~k
    done

  (* Finalize partial batches by padding with dummy nodes (§2.4: "they can
     be immediately finalized by allocating a finite number of dummy
     nodes"). Dummies run through the normal lifecycle so the books stay
     balanced. Only sound at quiescence. Every slot ever used, live or
     not: a departed thread's pending batch stays behind for recycling
     and must still be drained at teardown. *)
  let flush f =
    let k = f.slots () in
    let needed = max f.cfg.batch_size (k + 1) in
    for sid = 0 to f.cfg.max_threads - 1 do
      let p = f.pending.(sid) in
      if p.len > 0 then begin
        let sample = p.buf.(p.len - 1).payload in
        while p.len < needed do
          let d = alloc f sample in
          Smr.Lifecycle.on_retire ~tally:false ~scheme:f.scheme d.state
            f.counters;
          push_pending p d
        done;
        seal_pending f p ~k
      end
    done

  (* The paper's transparency claim (§2.4), machine-checked by the churn
     experiment: joining and leaving are free — no reservation cells to
     publish or clear, no final scan, no limbo to orphan (a departing
     thread's unsealed pending batch simply stays with its recycled index
     for the next occupant, and is drained by [flush] at teardown). *)
  let register ?tid f =
    let tid = match tid with Some tid -> tid | None -> R.self () in
    Smr.Slot_registry.register f.reg ~tid

  let deregister f s = Smr.Slot_registry.release f.reg s

  let data ~scheme n =
    Smr.Lifecycle.check_not_freed ~scheme ~what:"data" n.state;
    n.payload

  let stats f = Smr.Lifecycle.stats f.counters

  (* The common batch series, then the engine's [extra] ones, then the
     registry's. *)
  let metrics f extra =
    Smr.Lifecycle.snapshot ~scheme:f.scheme
      ~series:
        (Smr.Metrics.series_of
           ([ f.m_sealed; f.m_sealed_nodes; f.m_trims; f.m_insert_retries ]
           @ extra)
        @ Smr.Slot_registry.series f.reg)
      f.counters
end
