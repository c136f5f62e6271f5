(** The size-class slab arena (DESIGN.md §9).

    Allocation requests are rounded up to a power-of-two size class
    (≥ 16 bytes); each class owns a list of {!Slab}s and a LIFO free list
    of released slots. Frees push onto the free list, allocations pop from
    it before carving fresh storage — so the arena genuinely {e reuses}
    storage, LIFO-hot like real malloc, which is exactly the behaviour
    that makes ABA reachable for the explorer.

    A [Mutex] serialises all bookkeeping: under the simulator everything is
    one domain so the lock is free and — crucially — arena work costs zero
    simulated time except for the explicit allocation preemption point the
    schemes charge via {!Smr_runtime.Runtime_intf.S.alloc_point}. Under the
    native runtime the lock makes the arena a correct (if serial) malloc
    stand-in.

    Slabs are never returned: a drained slab stays resident, and the gap
    between carved storage and live bytes is the {!Mem_intf.fragmentation}
    ratio the reports surface.

    The budget protocol is two-phase and lives in {!Smr.Lifecycle}: [alloc]
    here merely {e refuses} with [`Budget] when the allocation would push
    resident bytes past the configured ceiling (counting one pressure
    event); the caller is expected to reclaim and retry, and to call
    {!note_oom} before giving up. *)

type slot = Slab.slot

type klass = {
  class_bytes : int;
  mutable current : Slab.t;  (** the slab being carved *)
  mutable retired_slabs : Slab.t list;  (** full slabs, kept resident *)
  (* LIFO free list as an array stack: pushes and pops move [free_len]
     over a reusable buffer, so the steady-state alloc/free cycle builds
     no list cells (DESIGN.md §15). *)
  mutable free : slot array;
  mutable free_len : int;
}

type t = {
  cfg : Mem_intf.config;
  lock : Mutex.t;
  mutable classes : klass list;  (** tiny; linear lookup by class size *)
  mutable next_slab_id : int;
  (* Stats cells: written under [lock], read lock-free by samplers. *)
  resident : int Stdlib.Atomic.t;
  resident_hwm : int Stdlib.Atomic.t;
  slab_bytes : int Stdlib.Atomic.t;
  slabs_live : int Stdlib.Atomic.t;
  reuse_hits : int Stdlib.Atomic.t;
  fresh_allocs : int Stdlib.Atomic.t;
  pressure_events : int Stdlib.Atomic.t;
  oom_failures : int Stdlib.Atomic.t;
}

let create ?(config = Mem_intf.default_config) () =
  {
    cfg = config;
    lock = Mutex.create ();
    classes = [];
    next_slab_id = 0;
    resident = Stdlib.Atomic.make 0;
    resident_hwm = Stdlib.Atomic.make 0;
    slab_bytes = Stdlib.Atomic.make 0;
    slabs_live = Stdlib.Atomic.make 0;
    reuse_hits = Stdlib.Atomic.make 0;
    fresh_allocs = Stdlib.Atomic.make 0;
    pressure_events = Stdlib.Atomic.make 0;
    oom_failures = Stdlib.Atomic.make 0;
  }

let node_bytes t = t.cfg.Mem_intf.node_bytes
let budget_bytes t = t.cfg.Mem_intf.budget_bytes

(* Power-of-two size classes with a 16-byte floor (two words: every node
   carries at least a payload and a link). Top-level recursion: a local
   [rec] here would close over [bytes] and allocate on every call. *)
let rec size_class_from c bytes =
  if c >= bytes then c else size_class_from (2 * c) bytes

let size_class bytes =
  if bytes <= 0 then invalid_arg "Arena.size_class: bytes must be positive";
  size_class_from 16 bytes

let new_slab t ~class_bytes =
  let slab =
    Slab.create ~id:t.next_slab_id ~class_bytes
      ~capacity:t.cfg.Mem_intf.slab_slots
  in
  t.next_slab_id <- t.next_slab_id + 1;
  Stdlib.Atomic.incr t.slabs_live;
  ignore
    (Stdlib.Atomic.fetch_and_add t.slab_bytes (Slab.storage_bytes slab));
  slab

(* Closure-free class lookup: the class list is tiny (one entry per
   distinct size class), and the miss path — which allocates the class
   record — runs once per class per arena lifetime. *)
let rec class_in t class_bytes = function
  | k :: rest ->
      if k.class_bytes = class_bytes then k else class_in t class_bytes rest
  | [] ->
      let k =
        {
          class_bytes;
          current = new_slab t ~class_bytes;
          retired_slabs = [];
          free = [||];
          free_len = 0;
        }
      in
      t.classes <- k :: t.classes;
      k

let find_class t class_bytes = class_in t class_bytes t.classes

let rec raise_hwm cell v =
  let p = Stdlib.Atomic.get cell in
  if v > p && not (Stdlib.Atomic.compare_and_set cell p v) then raise_hwm cell v

let bytes_resident t = Stdlib.Atomic.get t.resident

exception Budget
(** Raised by {!alloc_exn} when the allocation would exceed the byte
    budget. A constant constructor, so refusal allocates nothing. *)

(* The hot path holds the lock directly — no [Fun.protect], whose two
   closures per call dominated the retire path's allocation profile. The
   critical section cannot raise except for [Budget] itself, handled
   explicitly. *)
let alloc_exn t ~bytes : slot =
  let class_bytes = size_class bytes in
  Mutex.lock t.lock;
  let over_budget =
    match t.cfg.Mem_intf.budget_bytes with
    | Some b -> Stdlib.Atomic.get t.resident + class_bytes > b
    | None -> false
  in
  if over_budget then begin
    Stdlib.Atomic.incr t.pressure_events;
    Mutex.unlock t.lock;
    raise Budget
  end
  else begin
    let k = find_class t class_bytes in
    let slot =
      if k.free_len > 0 then begin
        let s = k.free.(k.free_len - 1) in
        k.free_len <- k.free_len - 1;
        Slab.reissue s;
        Stdlib.Atomic.incr t.reuse_hits;
        s
      end
      else begin
        if Slab.full k.current then begin
          k.retired_slabs <- k.current :: k.retired_slabs;
          k.current <- new_slab t ~class_bytes
        end;
        Stdlib.Atomic.incr t.fresh_allocs;
        Slab.carve k.current
      end
    in
    let r = Stdlib.Atomic.fetch_and_add t.resident class_bytes in
    raise_hwm t.resident_hwm (r + class_bytes);
    Mutex.unlock t.lock;
    slot
  end

let alloc t ~bytes : (slot, [ `Budget ]) result =
  match alloc_exn t ~bytes with
  | slot -> Ok slot
  | exception Budget -> Error `Budget

let free t (slot : slot) =
  Mutex.lock t.lock;
  let class_bytes = Slab.slot_bytes slot in
  let k = find_class t class_bytes in
  Slab.release slot;
  if k.free_len = Array.length k.free then begin
    let grown = Array.make (max 8 (2 * k.free_len)) slot in
    Array.blit k.free 0 grown 0 k.free_len;
    k.free <- grown
  end;
  k.free.(k.free_len) <- slot;
  k.free_len <- k.free_len + 1;
  ignore (Stdlib.Atomic.fetch_and_add t.resident (-class_bytes));
  Mutex.unlock t.lock

let note_oom t = Stdlib.Atomic.incr t.oom_failures
let slot_gen = Slab.slot_gen
let slot_bytes = Slab.slot_bytes

let stats t : Mem_intf.stats =
  let sb = Stdlib.Atomic.get t.slab_bytes in
  {
    bytes_resident = Stdlib.Atomic.get t.resident;
    bytes_hwm = Stdlib.Atomic.get t.resident_hwm;
    slab_bytes = sb;
    slab_bytes_hwm = sb;
    slabs_live = Stdlib.Atomic.get t.slabs_live;
    reuse_hits = Stdlib.Atomic.get t.reuse_hits;
    fresh_allocs = Stdlib.Atomic.get t.fresh_allocs;
    pressure_events = Stdlib.Atomic.get t.pressure_events;
    oom_failures = Stdlib.Atomic.get t.oom_failures;
  }
