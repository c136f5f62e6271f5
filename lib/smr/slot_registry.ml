(** Dense recycling registry of per-thread slots — the thread-lifecycle
    layer underneath every registration-based scheme (DESIGN.md §11).

    Historically each scheme indexed its per-thread state by raw scheduler
    tid, so thread ids had to stay below [config.max_threads] for the whole
    life of the structure and short-lived threads could never hand their
    dense index back. This registry decouples the two: a thread {e joins}
    by acquiring a slot (a dense index into the scheme's per-thread
    arrays), and {e leaves} by releasing it to a LIFO free list from which
    the next joiner recycles it. Scans iterate {!iter_live} — the currently
    registered slots, in ascending slot order for determinism — instead of
    the full capacity.

    Slots are generation-stamped: releasing a slot bumps its generation,
    so a stale {!slot} handle from a previous occupant is rejected by
    {!release} instead of silently deregistering the new occupant (the
    recycled-slot analogue of an ABA hazard — a departed thread's stale
    reservation must never resurrect a reclamation horizon).

    All registry state is plain OCaml guarded by a [Mutex] (shared-memory
    correct under the native runtime, uncontended under the cooperative
    simulator), so registry bookkeeping itself is invisible to the
    simulator's cost model. The {e charged} cost of joining or leaving a
    scheme is whatever the scheme itself does with its reservation cells —
    zero for the Hyaline engines, which is exactly the §2.4 transparency
    claim the churn experiment checks. *)

type slot = {
  id : int;  (** dense index into the scheme's per-thread arrays *)
  gen : int;  (** the slot's generation at registration *)
  tid : int;  (** the runtime thread id that registered it *)
}

type t = {
  capacity : int;
  lock : Mutex.t;
  live : bool array;  (** slot id currently registered? *)
  gens : int array;  (** generation per slot id, bumped on release *)
  mutable free : int list;  (** released slot ids, LIFO *)
  mutable next_fresh : int;  (** never-used watermark: ids >= are fresh *)
  mutable live_count : int;
  mutable tid_map : int array;  (** tid -> live slot id, or -1; grows *)
  mutable peak_live : int;
  m_registered : Metrics.Counter.t;
  m_deregistered : Metrics.Counter.t;
  m_reuses : Metrics.Counter.t;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Slot_registry.create: capacity <= 0";
  {
    capacity;
    lock = Mutex.create ();
    live = Array.make capacity false;
    gens = Array.make capacity 0;
    free = [];
    next_fresh = 0;
    live_count = 0;
    tid_map = Array.make (max 8 capacity) (-1);
    peak_live = 0;
    m_registered = Metrics.Counter.make "registered";
    m_deregistered = Metrics.Counter.make "deregistered";
    m_reuses = Metrics.Counter.make "slot_reuses";
  }

let capacity t = t.capacity
let live_count t = t.live_count

let ever_used t = t.next_fresh
(** Watermark of slot ids ever handed out; teardown paths that must drain
    state left behind by departed threads sweep [0 .. ever_used - 1]. *)

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let slot_of_tid t ~tid =
  if tid >= 0 && tid < Array.length t.tid_map then t.tid_map.(tid) else -1

let register t ~tid : slot =
  if tid < 0 then invalid_arg "Slot_registry.register: negative tid";
  locked t (fun () ->
      if tid >= Array.length t.tid_map then begin
        let cap = max (tid + 1) (2 * Array.length t.tid_map) in
        let grown = Array.make cap (-1) in
        Array.blit t.tid_map 0 grown 0 (Array.length t.tid_map);
        t.tid_map <- grown
      end;
      if t.tid_map.(tid) >= 0 then
        invalid_arg
          (Printf.sprintf "Slot_registry.register: tid %d already registered"
             tid);
      let id =
        match t.free with
        | id :: rest ->
            t.free <- rest;
            Metrics.Counter.incr t.m_reuses;
            id
        | [] ->
            if t.next_fresh >= t.capacity then
              invalid_arg
                (Printf.sprintf
                   "Slot_registry.register: all %d slots are registered \
                    (raise config.max_threads)"
                   t.capacity);
            let id = t.next_fresh in
            t.next_fresh <- t.next_fresh + 1;
            id
      in
      t.live.(id) <- true;
      t.tid_map.(tid) <- id;
      t.live_count <- t.live_count + 1;
      if t.live_count > t.peak_live then t.peak_live <- t.live_count;
      Metrics.Counter.incr t.m_registered;
      { id; gen = t.gens.(id); tid })

(* Lookup-or-register for the calling thread: the implicit registration
   path taken by [enter] so code written before the lifecycle layer (unit
   tests, sequential examples) keeps working without an explicit
   [register]. *)
let ensure t ~tid =
  let id = slot_of_tid t ~tid in
  if id >= 0 then id else (register t ~tid).id

let release t (s : slot) =
  locked t (fun () ->
      if s.id < 0 || s.id >= t.capacity then
        invalid_arg "Slot_registry.release: bad slot id";
      if (not t.live.(s.id)) || t.gens.(s.id) <> s.gen then
        invalid_arg
          (Printf.sprintf
             "Slot_registry.release: stale slot %d gen %d (double deregister, \
              or the slot was recycled)"
             s.id s.gen);
      t.live.(s.id) <- false;
      t.gens.(s.id) <- t.gens.(s.id) + 1;
      t.free <- s.id :: t.free;
      t.live_count <- t.live_count - 1;
      if s.tid < Array.length t.tid_map && t.tid_map.(s.tid) = s.id then
        t.tid_map.(s.tid) <- -1;
      Metrics.Counter.incr t.m_deregistered)

(* Unlocked, like [iter_live]: a scan that yielded asks whether the slot
   it is scanning still has an occupant. *)
let is_live t id = t.live.(id)

(* Ascending slot-id order: scans must read reservation cells in a
   deterministic order for the simulator's schedules to be reproducible. *)
let iter_live t f =
  for id = 0 to t.next_fresh - 1 do
    if t.live.(id) then f id
  done

let series t =
  Metrics.series_of [ t.m_registered; t.m_deregistered; t.m_reuses ]
  @ [ ("peak_live_slots", t.peak_live) ]
