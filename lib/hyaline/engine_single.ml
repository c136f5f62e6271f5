(** The single-slot engine: Hyaline-1 (Fig. 4) and every scheme that keeps
    its retire side. One dedicated slot per thread, so [HRef] degenerates
    to a single "active" bit merged with the pointer — a plain
    single-width CAS word. [enter] and [leave] become wait-free (a store
    and a swap), predecessors are never adjusted, and a batch's NRef is
    simply the number of slots it was inserted into.

    The retire/seal/traverse side is shared by all four instances; only
    the reader protocol differs, selected by the flavour's {!reader}:

    - [Plain] — Hyaline-1: no eras, [protect] is the bare read.
    - [Eras] — Hyaline-1S (§4.2, Fig. 5) and Crystalline-L
      (arXiv:2108.02763): birth eras on allocation, per-slot access eras,
      and the lock-free validation loop, with [touch] an ordinary write
      thanks to the 1:1 thread-to-slot mapping — which also lets the
      owner read its access era from a plain copy instead of the shared
      cell. A sealed batch skips a slot whose access era predates the
      batch's minimum birth era, so a stalled thread only ever poisons
      its own slot: fully robust without resizing. The loop can starve — an adversarial allocator
      can keep a reader retrying forever — but memory stays bounded.
    - [Handshake] — Crystalline-W: the era loop capped at [fast_tries]
      retries, then a wait-free handshake. The reader publishes a helper
      thunk in its slot's request cell and keeps re-attempting. Every
      thread about to advance the era first runs the published thunks
      ([help_pending], called from [alloc] just before the increment). A
      helper raises the seeker's access era to the current era {e before}
      reading, re-validates that the era did not move across the read,
      and deposits the value once (a CAS into the seeker's result cell);
      the reader adopts the first deposit it finds. The reader's steps
      are then bounded by the number of in-flight era advances (at most
      one per thread), not by the adversary's total allocation count. A
      killed reader's request is completed exactly once; after the
      deposit its access era is frozen, so helpers touch it no further
      and the skip rule bounds its memory. Because [access] now has two
      writers, every write to it is a monotonic CAS-max.

    Wait-freedom is achieved entirely on the reader side, so the
    memory-bound argument of the robust flavours carries over unchanged.
    Only [Handshake] creates request cells and reports the handshake
    counters; the other flavours charge and allocate nothing for it.

    Hot-path layout (DESIGN.md §15): the head word carries a plain node
    with {!Batch.Make.nil} as the empty pointer, so an insert builds one
    two-field word record and no [Some] box. Word records installed by
    CAS-visible writes stay fresh per install — their physical identity is
    the CAS version tag — while the [idle] word, which is never a CAS
    expectation (retire skips inactive slots), is shared per instance. *)

(** The reader protocol of a single-slot scheme. *)
type reader =
  | Plain
  | Eras
  | Handshake of {
      fast_tries : int;
          (** era-loop retries before the handshake; 0 forces the slow
              path on the first failed validation (used by tests to pin
              the handshake) *)
      validate_help : bool;
          (** whether a helper follows the sound attempt discipline —
              raise the seeker's reservation {e before} reading, then
              re-validate that the era did not move across the read
              before depositing. [false] makes the helper deposit the
              seeker's {e original} failed read instead: that value was
              read while the seeker's access era lagged the allocation
              era, so the batch holding it can seal past the seeker's
              reservation, skip its slot, and be reclaimed under the
              deposit. {e Deliberately unsound}; the broken flavour
              exists solely so the test suite can show the explorer
              catching the resulting use-after-free. *)
    }

module type FLAVOR = sig
  val scheme_name : string
  val reader : reader
end

module Make (R : Smr_runtime.Runtime_intf.S) (F : FLAVOR) = struct
  let scheme_name = F.scheme_name
  let robust = match F.reader with Plain -> false | Eras | Handshake _ -> true

  let handshake =
    match F.reader with Handshake _ -> true | Plain | Eras -> false

  module R = R
  module B = Batch.Make (R)

  type 'a node = 'a B.node

  (* The single-word head: an "active" bit squeezed next to the pointer. *)
  type 'a word = { active : bool; hptr : 'a B.node }

  (* The per-slot request cell of the handshake. The thunk is monomorphic
     (it closes over the seeker's typed result cell), so the cell stays
     ['b]-free. *)
  type request = Idle | Seeking of (unit -> unit)

  type 'a slot = {
    head : 'a word R.Atomic.t;
    access : int R.Atomic.t;
    request : request R.Atomic.t option;  (* [Some] iff [handshake] *)
  }

  type 'a t = {
    cfg : Smr.Smr_intf.config;
    counters : Smr.Lifecycle.counters;
    (* Thread-lifecycle bookkeeping only: Hyaline needs no per-thread
       registration work (§2.4), so join/leave never touch a simulated
       cell — the transparency the churn experiment measures as a zero
       cost delta. The registry just recycles dense slot indices. *)
    reg : Smr.Slot_registry.t;
    slots : 'a slot array;  (* one per registered thread; k = max_threads *)
    access_copy : int array;
        (* [Eras]: the owner's plain copy of its slot's [access], the
           value it last stored there *)
    idle : 'a word;  (* the shared inactive word, per instance *)
    era : int R.Atomic.t;
    alloc_clock : int Stdlib.Atomic.t;
    pending : 'a B.pending array;
    pool : 'a B.pool;  (* recycled batch records *)
    mutable on_pressure : unit -> unit;
    (* Metrics (plain atomics, invisible to the cost model). *)
    m_sealed : Smr.Metrics.Counter.t;
    m_sealed_nodes : Smr.Metrics.Counter.t;
    m_trims : Smr.Metrics.Counter.t;
    m_insert_retries : Smr.Metrics.Counter.t;
    m_fast_retries : Smr.Metrics.Counter.t;
    m_slow_paths : Smr.Metrics.Counter.t;
    m_help_deposits : Smr.Metrics.Counter.t;
    m_adoptions : Smr.Metrics.Counter.t;
  }

  type 'a guard = { sid : int; handle : 'a B.node }

  let current_slots t = Array.length t.slots

  let data (n : 'a node) =
    Smr.Lifecycle.check_not_freed ~scheme:F.scheme_name ~what:"data" n.state;
    n.payload

  (* The paper's transparency claim (§2.4), machine-checked by the churn
     experiment: joining and leaving are free — no reservation cells to
     publish or clear, no final scan, no limbo to orphan (a departing
     thread's unsealed pending batch simply stays with the slot for its
     next occupant, and is drained by [flush] at teardown). *)
  let register ?tid t =
    let tid = match tid with Some tid -> tid | None -> R.self () in
    Smr.Slot_registry.register t.reg ~tid

  let deregister t s = Smr.Slot_registry.release t.reg s

  (* Fig. 4 enter: a wait-free store. The slot necessarily reads the idle
     word here — the previous leave swapped it out (and a recycled slot's
     last occupant left the same way). A handshake slot first clears any
     request a killed previous occupant left armed, so stale thunks
     cannot outlive the slot's recycling. *)
  let enter t =
    let sid = Smr.Slot_registry.ensure t.reg ~tid:(R.self ()) in
    let slot = t.slots.(sid) in
    (match slot.request with
    | Some r -> (
        match R.Atomic.get r with Idle -> () | Seeking _ -> R.Atomic.set r Idle)
    | None -> ());
    R.Atomic.set slot.head { active = true; hptr = B.nil () };
    { sid; handle = B.nil () }

  (* Decrement every batch in the detached list once (this thread owned the
     only reference this slot contributed); free on zero, FIFO-deferred. *)
  let rec traverse_go to_free curr handle =
    if B.is_nil curr then to_free
    else begin
      Smr.Lifecycle.check_not_freed ~scheme:F.scheme_name ~what:"traverse"
        curr.B.state;
      let next = R.Atomic.get curr.B.next in
      let b = B.batch_of curr in
      let to_free =
        if R.Atomic.fetch_and_add b.nref (-1) = 1 then b :: to_free
        else to_free
      in
      if B.same_node curr handle then to_free
      else traverse_go to_free next handle
    end

  let traverse t first handle =
    List.iter
      (B.free_batch ~counters:t.counters)
      (List.rev (traverse_go [] first handle))

  (* Fig. 4 leave: a wait-free swap detaching the whole list. *)
  let leave t g =
    let old = R.Atomic.exchange t.slots.(g.sid).head t.idle in
    if not (B.is_nil old.hptr) then traverse t old.hptr g.handle

  (* leave + enter fused, keeping the active bit set throughout. *)
  let trim t g =
    Smr.Metrics.Counter.incr t.m_trims;
    let slot = t.slots.(g.sid) in
    let old =
      R.Atomic.exchange slot.head { active = true; hptr = B.nil () }
    in
    assert old.active;
    if not (B.is_nil old.hptr) then traverse t old.hptr g.handle;
    g

  (* Fig. 5 deref; touch is an ordinary write (1:1 thread-to-slot). The
     owner is the only writer of an [Eras] slot's [access], so it reads
     its own plain copy instead of the shared cell and charges only the
     pointer and era reads, plus the store when the era moved (DESIGN.md
     §15 "Robust Hyaline reader path"). *)
  let rec era_attempt t sid read access =
    let v = read () in
    let alloc = R.Atomic.get t.era in
    if access >= alloc then v
    else begin
      R.Atomic.set t.slots.(sid).access alloc;
      t.access_copy.(sid) <- alloc;
      era_attempt t sid read alloc
    end

  (* The handshake's [touch]: [access] has two writers (the owner and any
     helper), so a reservation, once raised, is never lowered under a
     value some reader relied on. *)
  let rec touch cell v =
    let cur = R.Atomic.get cell in
    if cur < v && not (R.Atomic.compare_and_set cell cur v) then touch cell v

  (* The handshake's slow path. The owner and helpers share one attempt
     shape: raise the reservation to the current era, read, then accept
     the value only if the era did not move across the read — the
     invariant a successful era-loop iteration establishes, so deposited
     values are protected by the same argument. [stale] is the value the
     owner's last fast attempt read before its validation failed; only
     the unsound test flavour touches it. *)
  let slow t slot ~validate_help ~read ~stale =
    Smr.Metrics.Counter.incr t.m_slow_paths;
    let request = Option.get slot.request in
    let result = R.Atomic.make None in
    let run_help () =
      (* At most one deposit per request: once completed, later era
         advances leave the slot's access era alone, preserving the
         killed-reader memory bound. *)
      if Option.is_none (R.Atomic.get result) then
        if validate_help then begin
          let e_h = R.Atomic.get t.era in
          touch slot.access e_h;
          let v = read () in
          if R.Atomic.get t.era = e_h then
            if R.Atomic.compare_and_set result None (Some v) then
              Smr.Metrics.Counter.incr t.m_help_deposits
        end
        else if R.Atomic.compare_and_set result None (Some stale) then
          Smr.Metrics.Counter.incr t.m_help_deposits
    in
    R.Atomic.set request (Seeking run_help);
    let rec arm () =
      let e = R.Atomic.get t.era in
      touch slot.access e;
      let v = read () in
      if R.Atomic.get t.era = e then begin
        R.Atomic.set request Idle;
        v
      end
      else
        match R.Atomic.get result with
        | Some v ->
            R.Atomic.set request Idle;
            Smr.Metrics.Counter.incr t.m_adoptions;
            v
        | None -> arm ()
    in
    arm ()

  (* The handshake's capped era loop; on exhaustion the last (failed)
     read goes to the slow path as [stale]. *)
  let rec fast_attempt t slot read ~validate_help tries access =
    let v = read () in
    let alloc = R.Atomic.get t.era in
    if access >= alloc then v
    else if tries <= 0 then slow t slot ~validate_help ~read ~stale:v
    else begin
      touch slot.access alloc;
      Smr.Metrics.Counter.incr t.m_fast_retries;
      fast_attempt t slot read ~validate_help (tries - 1) alloc
    end

  let protect t g ~idx:_ ~read ~target:_ =
    match F.reader with
    | Plain -> read ()
    | Eras -> era_attempt t g.sid read t.access_copy.(g.sid)
    | Handshake { fast_tries; validate_help } ->
        let slot = t.slots.(g.sid) in
        fast_attempt t slot read ~validate_help fast_tries
          (R.Atomic.get slot.access)

  (* Fig. 4 retire: count the slots the batch lands in, then adjust NRef by
     that count (no Adjs constants, no predecessor adjustment). *)
  let rec insert_attempt t (b : 'a B.batch) slot cursor =
    let seen = R.Atomic.get slot.head in
    let skip =
      (not seen.active) || (robust && R.Atomic.get slot.access < b.B.min_birth)
    in
    if skip then false
    else begin
      let node = b.B.nodes.(cursor) in
      R.Atomic.set node.B.next seen.hptr;
      if R.Atomic.compare_and_set slot.head seen { active = true; hptr = node }
      then true
      else begin
        Smr.Metrics.Counter.incr t.m_insert_retries;
        insert_attempt t b slot cursor
      end
    end

  let retire_batch t (b : 'a B.batch) =
    let cursor = ref 1 in
    let inserts = ref 0 in
    (* Live (registered) slots only, in ascending slot order: retire cost
       tracks the number of threads actually present, not the capacity. *)
    Smr.Slot_registry.iter_live t.reg (fun i ->
        if insert_attempt t b t.slots.(i) !cursor then begin
          incr cursor;
          incr inserts
        end);
    (* When [inserts = 0] no slot was active and the FAA finds NRef at 0,
       freeing the batch on the spot. *)
    if R.Atomic.fetch_and_add b.nref !inserts = - !inserts then
      B.free_batch ~counters:t.counters b

  let effective_batch t = max t.cfg.batch_size (Array.length t.slots + 1)

  let seal_pending t (p : 'a B.pending) =
    Smr.Metrics.Counter.incr t.m_sealed;
    Smr.Metrics.Counter.add t.m_sealed_nodes p.len;
    let b =
      B.seal ~counters:t.counters ~pool:t.pool ~k:(Array.length t.slots)
        ~adjs:0 p.buf p.len
    in
    p.len <- 0;
    retire_batch t b

  (* Budget relief: seal this thread's own pending batch early, if it is
     already long enough to be a valid batch (> k nodes). Never pads with
     dummy allocations — that would spend the very bytes we lack. *)
  let relieve_pressure t () =
    let p = t.pending.(Smr.Slot_registry.ensure t.reg ~tid:(R.self ())) in
    if p.len > Array.length t.slots then seal_pending t p

  let create (cfg : Smr.Smr_intf.config) =
    let idle = { active = false; hptr = B.nil () } in
    let t =
      {
        cfg;
        counters =
          Smr.Lifecycle.make_counters ~mem:(Smr.Smr_intf.mem_config cfg) ();
        reg = Smr.Slot_registry.create ~capacity:cfg.max_threads;
        slots =
          Array.init cfg.max_threads (fun _ ->
              {
                head = R.Atomic.make idle;
                access = R.Atomic.make 0;
                request =
                  (if handshake then Some (R.Atomic.make Idle) else None);
              });
        access_copy = Array.make cfg.max_threads 0;
        idle;
        era = R.Atomic.make 0;
        alloc_clock = Stdlib.Atomic.make 0;
        pending = Array.init cfg.max_threads (fun _ -> B.make_pending ());
        pool = B.make_pool ();
        on_pressure = ignore;
        m_sealed = Smr.Metrics.Counter.make "batches_sealed";
        m_sealed_nodes = Smr.Metrics.Counter.make "batch_nodes_sealed";
        m_trims = Smr.Metrics.Counter.make "trims";
        m_insert_retries = Smr.Metrics.Counter.make "insert_cas_retries";
        m_fast_retries = Smr.Metrics.Counter.make "protect_fast_retries";
        m_slow_paths = Smr.Metrics.Counter.make "protect_slow_paths";
        m_help_deposits = Smr.Metrics.Counter.make "help_deposits";
        m_adoptions = Smr.Metrics.Counter.make "help_adoptions";
      }
    in
    t.on_pressure <- relieve_pressure t;
    t

  (* Run every published request before advancing the era: completing the
     seekers is part of the advance, which is what makes the advance
     harmless to them. *)
  let help_pending t =
    Smr.Slot_registry.iter_live t.reg (fun i ->
        match t.slots.(i).request with
        | Some r -> (
            match R.Atomic.get r with
            | Idle -> ()
            | Seeking run_help -> run_help ())
        | None -> ())

  let alloc ?bytes t payload =
    let mem_bytes =
      B.node_overhead_bytes
      + Option.value bytes ~default:t.cfg.Smr.Smr_intf.node_bytes
    in
    R.alloc_point ~bytes:mem_bytes;
    let birth =
      if robust then begin
        let c = Stdlib.Atomic.fetch_and_add t.alloc_clock 1 in
        if c mod t.cfg.era_freq = t.cfg.era_freq - 1 then begin
          if handshake then help_pending t;
          R.Atomic.incr t.era
        end;
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
    if p.len >= effective_batch t then seal_pending t p

  (* Mid-run reclaimer entry point: seal every pending batch that already
     exceeds the slot count, across all slots — [relieve_pressure] for
     the whole table. Allocation-free; short batches are left to fill,
     never padded. *)
  let relieve t =
    let needed = Array.length t.slots in
    for sid = 0 to t.cfg.max_threads - 1 do
      let p = t.pending.(sid) in
      if p.len > needed then seal_pending t p
    done

  (* Every slot ever used, live or not: a departed thread's pending batch
     stays behind for recycling and must still be drained at teardown. *)
  let flush t =
    let needed = effective_batch t in
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
        seal_pending t p
      end
    done

  (* Hyaline realises refresh as trim (§3.3). *)
  let refresh = trim

  let stats t = Smr.Lifecycle.stats t.counters

  let metrics t =
    let handshake_series =
      if handshake then
        [ t.m_fast_retries; t.m_slow_paths; t.m_help_deposits; t.m_adoptions ]
      else []
    in
    Smr.Lifecycle.snapshot ~scheme:F.scheme_name
      ~series:
        (Smr.Metrics.series_of
           ([ t.m_sealed; t.m_sealed_nodes; t.m_trims; t.m_insert_retries ]
           @ handshake_series)
        @ Smr.Slot_registry.series t.reg)
      t.counters
end
