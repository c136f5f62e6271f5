(** The single-slot engine: Hyaline-1 (Fig. 4) and every scheme that keeps
    its retire side. One dedicated slot per thread, so [HRef] degenerates
    to a single "active" bit merged with the pointer — a plain
    single-width CAS word. [enter] and [leave] become wait-free (a store
    and a swap), predecessors are never adjusted, and a batch's NRef is
    simply the number of slots it was inserted into.

    The retire side lives in {!Batch.Make}'s front-end, shared with the
    multi-slot engine; only the reader protocol differs among the four
    instances, selected by the flavour's {!reader}:

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
    with {!Smr.Smr_intf.nil} as the empty pointer, so an insert builds one
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
    front : 'a B.front;
    slots : 'a slot array;  (* one per registered thread; k = max_threads *)
    access_copy : int array;
        (* [Eras]: the owner's plain copy of its slot's [access], the
           value it last stored there *)
    idle : 'a word;  (* the shared inactive word, per instance *)
    (* Metrics (plain atomics, invisible to the cost model). *)
    m_fast_retries : Smr.Metrics.Counter.t;
    m_slow_paths : Smr.Metrics.Counter.t;
    m_help_deposits : Smr.Metrics.Counter.t;
    m_adoptions : Smr.Metrics.Counter.t;
  }

  type 'a guard = { sid : int; handle : 'a B.node }

  let current_slots t = Array.length t.slots

  let data (n : 'a node) = B.data ~scheme:F.scheme_name n
  let register ?tid t = B.register ?tid t.front
  let deregister t s = B.deregister t.front s

  (* Fig. 4 enter: a wait-free store. The slot necessarily reads the idle
     word here — the previous leave swapped it out (and a recycled slot's
     last occupant left the same way). A handshake slot first clears any
     request a killed previous occupant left armed, so stale thunks
     cannot outlive the slot's recycling. *)
  let enter t =
    let sid = Smr.Slot_registry.ensure t.front.reg ~tid:(R.self ()) in
    let slot = t.slots.(sid) in
    (match slot.request with
    | Some r -> (
        match R.Atomic.get r with Idle -> () | Seeking _ -> R.Atomic.set r Idle)
    | None -> ());
    R.Atomic.set slot.head { active = true; hptr = Smr.Smr_intf.nil () };
    { sid; handle = Smr.Smr_intf.nil () }

  (* Decrement every batch in the detached list once (this thread owned the
     only reference this slot contributed); free on zero, FIFO-deferred.
     No Ack to debit, even for the robust flavours. *)
  let traverse t first handle = B.traverse t.front ~ack:B.no_ack first handle

  (* Fig. 4 leave: a wait-free swap detaching the whole list. *)
  let leave t g =
    let old = R.Atomic.exchange t.slots.(g.sid).head t.idle in
    if not (Smr.Smr_intf.is_nil old.hptr) then traverse t old.hptr g.handle

  (* leave + enter fused, keeping the active bit set throughout. *)
  let trim t g =
    Smr.Metrics.Counter.incr t.front.m_trims;
    let slot = t.slots.(g.sid) in
    let old =
      R.Atomic.exchange slot.head { active = true; hptr = Smr.Smr_intf.nil () }
    in
    assert old.active;
    if not (Smr.Smr_intf.is_nil old.hptr) then traverse t old.hptr g.handle;
    g

  (* Fig. 5 deref; touch is an ordinary write (1:1 thread-to-slot). The
     owner is the only writer of an [Eras] slot's [access], so it reads
     its own plain copy instead of the shared cell and charges only the
     pointer and era reads, plus the store when the era moved (DESIGN.md
     §15 "Robust Hyaline reader path"). *)
  let rec era_attempt t sid read access =
    let v = read () in
    let alloc = R.Atomic.get t.front.era in
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
          let e_h = R.Atomic.get t.front.era in
          touch slot.access e_h;
          let v = read () in
          if R.Atomic.get t.front.era = e_h then
            if R.Atomic.compare_and_set result None (Some v) then
              Smr.Metrics.Counter.incr t.m_help_deposits
        end
        else if R.Atomic.compare_and_set result None (Some stale) then
          Smr.Metrics.Counter.incr t.m_help_deposits
    in
    R.Atomic.set request (Seeking run_help);
    let rec arm () =
      let e = R.Atomic.get t.front.era in
      touch slot.access e;
      let v = read () in
      if R.Atomic.get t.front.era = e then begin
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
    let alloc = R.Atomic.get t.front.era in
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

  (* Free for every reader, as in [Engine_multi]: the slot's access era
     only rises within an operation (the owner's [era_attempt] and every
     [touch] only raise it), so a validated node stays covered. *)
  let transfer (_ : _ t) (_ : _ guard) ~idx:_ (_ : _ node) = ()

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
        Smr.Metrics.Counter.incr t.front.m_insert_retries;
        insert_attempt t b slot cursor
      end
    end

  let retire_batch t (b : 'a B.batch) =
    let cursor = ref 1 in
    let inserts = ref 0 in
    (* Live (registered) slots only, in ascending slot order: retire cost
       tracks the number of threads actually present, not the capacity. *)
    Smr.Slot_registry.iter_live t.front.reg (fun i ->
        if insert_attempt t b t.slots.(i) !cursor then begin
          incr cursor;
          incr inserts
        end);
    (* When [inserts = 0] no slot was active and the FAA finds NRef at 0,
       freeing the batch on the spot. *)
    B.adjust ~counters:t.front.counters b.nodes.(0) !inserts

  (* Run every published request before advancing the era: completing the
     seekers is part of the advance, which is what makes the advance
     harmless to them. *)
  let help_pending t =
    Smr.Slot_registry.iter_live t.front.reg (fun i ->
        match t.slots.(i).request with
        | Some r -> (
            match R.Atomic.get r with
            | Idle -> ()
            | Seeking run_help -> run_help ())
        | None -> ())

  let create (cfg : Smr.Smr_intf.config) =
    let idle = { active = false; hptr = Smr.Smr_intf.nil () } in
    let front =
      B.make_front ~scheme:F.scheme_name ~robust ~adjs:(fun _ -> 0) cfg
    in
    let t =
      {
        front;
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
        m_fast_retries = Smr.Metrics.Counter.make "protect_fast_retries";
        m_slow_paths = Smr.Metrics.Counter.make "protect_slow_paths";
        m_help_deposits = Smr.Metrics.Counter.make "help_deposits";
        m_adoptions = Smr.Metrics.Counter.make "help_adoptions";
      }
    in
    front.slots <- (fun () -> cfg.max_threads);
    front.insert <- (fun b _ -> retire_batch t b);
    if handshake then front.before_tick <- (fun () -> help_pending t);
    t

  let alloc ?bytes t payload = B.alloc ?bytes t.front payload
  let retire t g n = B.retire t.front g.sid n
  let relieve t = B.relieve t.front
  let flush t = B.flush t.front

  (* Hyaline realises refresh as trim (§3.3). *)
  let refresh = trim

  let stats t = B.stats t.front

  let metrics t =
    B.metrics t.front
      (if handshake then
         [ t.m_fast_retries; t.m_slow_paths; t.m_help_deposits; t.m_adoptions ]
       else [])
end
