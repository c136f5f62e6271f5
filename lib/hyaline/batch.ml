(** Batches of retired nodes and the [Adjs] modular arithmetic (§3.2).

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
    ['a node R.Atomic.t] — the empty link is the {!nil} sentinel, an
    immediate, so no [Some] box is built per link update. Batch records
    are mutable and pooled: a batch whose NRef accounting has fully
    completed returns to its owner's {!type:pool} and the next {!seal}
    reuses the record, its [nodes] array and its [nref] cell, making the
    steady-state seal path allocation-free (returning a record costs one
    cons cell). The pool is shared by every thread of an engine instance — any
    thread may free a batch and any thread may seal one — so it is an
    atomic stack (see {!type:pool}). *)

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
            {!nil} when the node is last (or not yet linked) *)
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

  (* The empty-link sentinel is the immediate 0: never dereferenced (every
     traversal guards [is_nil] first; [nil] never carries a payload, enters
     a head, or has its batch looked up), so it needs no backing record and
     costs nothing to compare against. *)
  let nil : unit -> 'a node = fun () -> Obj.magic 0
  let[@inline] is_nil (n : _ node) = Obj.repr n == Obj.repr 0
  let[@inline] of_opt = function Some n -> n | None -> nil ()
  let[@inline] same_node (a : _ node) b = a == b

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
      next = R.Atomic.make (nil ());
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
      Array.unsafe_set nodes i (nil ())
    done;
    b.len <- 0;
    give b.pool b

  (* adjust (Fig. 3 lines 41-43): add [v] to the batch's NRef; the counter
     crossing zero means the batch is fully adjusted and unreferenced. *)
  let adjust ~counters n v =
    let b = batch_of n in
    if R.Atomic.fetch_and_add b.nref v = -v then free_batch ~counters b
end
