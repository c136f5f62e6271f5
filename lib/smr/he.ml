(** Hazard eras (Ramalhete & Correia, SPAA'17) — the paper's [HE] baseline.

    HP's structure with eras instead of addresses: nodes carry birth and
    retire eras; a dereference publishes the current era in one of the
    thread's reservation slots and validates that the clock did not move.
    A node is freed once no published era falls inside its
    [birth, retire] lifespan. Robust, O(mn) scans like HP, but dereferences
    are cheaper because many hit an already-published era: each slot keeps
    a plain owner copy of the eras it published, so a [protect] on an index
    that already holds the current era reads the pointer and the clock and
    publishes nothing. Only the first [protect] on an index within an
    operation, and one that sees the clock move, pays the store
    (DESIGN.md §15, "Baseline reader paths"). *)

module Make (R : Smr_runtime.Runtime_intf.S) = struct
  let scheme_name = "HE"
  let robust = true

  module R = R

  let none = -1

  type 'a node = {
    payload : 'a;
    state : Lifecycle.cell;
    birth : int;
    mutable retire_era : int;
  }

  type 'a t = {
    cfg : Smr_intf.config;
    counters : Lifecycle.counters;
    era : int R.Atomic.t;
    reg : Slot_registry.t;
    reservations : int R.Atomic.t array array;  (* [slot].(idx) = era or none *)
    (* [slot].(idx): the era the slot's owner last published there, or
       [none]. Read and written by the owner only, so plain and uncharged;
       reset wherever the reservation is. *)
    owned : int array array;
    limbo : 'a node list array;
    limbo_len : int array;
    since_scan : int array;
    (* Limbo handed off by departed threads, adopted by the next scan. *)
    mutable orphans : 'a node list;
    orphan_lock : Mutex.t;
    mutable on_pressure : unit -> unit;
        (* budget relief, one own-thread scan: built once at [create] so
           the allocation path does not close over [t] per node *)
    (* Allocation counter driving era bumps. Plain [Stdlib.Atomic] so that
       prefill (outside any logical thread) can allocate too; the paper
       counts per thread, but only the bump frequency matters. *)
    alloc_clock : int Stdlib.Atomic.t;
    m_scans : Metrics.Counter.t;
    m_scanned : Metrics.Counter.t;
    m_era_advances : Metrics.Counter.t;
    m_orphaned : Metrics.Counter.t;
    m_adopted : Metrics.Counter.t;
  }

  type 'a guard = { sid : int; mutable used : int }

  (* Per-node scheme overhead in modelled bytes: birth and retire eras plus
     the limbo link and length tag (four words). *)
  let node_overhead_bytes = 32

  let data n =
    Lifecycle.check_not_freed ~scheme:scheme_name ~what:"data" n.state;
    n.payload

  let enter t =
    { sid = Slot_registry.ensure t.reg ~tid:(R.self ()); used = 0 }

  let leave t g =
    let slots = t.reservations.(g.sid) and owned = t.owned.(g.sid) in
    for idx = 0 to g.used - 1 do
      R.Atomic.set slots.(idx) none;
      owned.(idx) <- none
    done;
    g.used <- 0

  (* Publish [era] on [idx], read the pointer, and validate that the clock
     did not move; on a move, republish the new era and retry. *)
  let rec publish_attempt t slot owned idx read era =
    R.Atomic.set slot era;
    owned.(idx) <- era;
    let v = read () in
    let now = R.Atomic.get t.era in
    if now = era then v else publish_attempt t slot owned idx read now

  (* [idx] already holds [era]: the published get_protected loop, which
     stores only when the clock moved past it. *)
  let hit_attempt t slot owned idx read era =
    let v = read () in
    let now = R.Atomic.get t.era in
    if now = era then v else publish_attempt t slot owned idx read now

  (* The first protect on an index within an operation charges the era
     read, the publish, the pointer read and the validating era read;
     later ones charge only the pointer and era reads while the era holds. *)
  let protect t g ~idx ~read ~target:_ =
    if idx >= t.cfg.hp_indices then invalid_arg "He.protect: idx out of range";
    if idx >= g.used then g.used <- idx + 1;
    let slot = t.reservations.(g.sid).(idx) and owned = t.owned.(g.sid) in
    let era = owned.(idx) in
    if era = none then
      publish_attempt t slot owned idx read (R.Atomic.get t.era)
    else hit_attempt t slot owned idx read era

  (* A transfer moves the reservation onto [idx] like any protect: the era
     published there is what covers the node for the new role. *)
  let transfer t g ~idx _ =
    protect t g ~idx ~read:ignore ~target:(fun () -> None)

  (* Snapshot every published era once (charged), then partition with pure
     interval tests. *)
  let adopt_orphans t sid =
    Mutex.lock t.orphan_lock;
    let os = t.orphans in
    t.orphans <- [];
    Mutex.unlock t.orphan_lock;
    match os with
    | [] -> ()
    | _ ->
        let n = List.length os in
        Metrics.Counter.add t.m_adopted n;
        t.limbo.(sid) <- os @ t.limbo.(sid);
        t.limbo_len.(sid) <- t.limbo_len.(sid) + n

  (* Eras published by live (registered) slots only, ascending slot order. *)
  let published_eras t =
    let eras = ref [] in
    Slot_registry.iter_live t.reg (fun sid ->
        for idx = 0 to t.cfg.hp_indices - 1 do
          let r = R.Atomic.get t.reservations.(sid).(idx) in
          if r <> none then eras := r :: !eras
        done);
    !eras

  let scan t sid =
    Metrics.Counter.incr t.m_scans;
    adopt_orphans t sid;
    Metrics.Counter.add t.m_scanned t.limbo_len.(sid);
    let eras = published_eras t in
    let reserved n =
      List.exists (fun r -> n.birth <= r && r <= n.retire_era) eras
    in
    let keep, free = List.partition reserved t.limbo.(sid) in
    t.limbo.(sid) <- keep;
    t.limbo_len.(sid) <- List.length keep;
    List.iter
      (fun n -> Lifecycle.on_free ~scheme:scheme_name n.state t.counters)
      free

  let register ?tid t =
    let tid = match tid with Some tid -> tid | None -> R.self () in
    let s = Slot_registry.register t.reg ~tid in
    (* Publish the era row empty: hp_indices charged stores. *)
    let row = t.reservations.(s.Slot_registry.id) in
    for idx = 0 to t.cfg.hp_indices - 1 do
      R.Atomic.set row.(idx) none
    done;
    Array.fill t.owned.(s.Slot_registry.id) 0 t.cfg.hp_indices none;
    s

  let deregister t (s : Slot_registry.slot) =
    let sid = s.Slot_registry.id in
    let row = t.reservations.(sid) in
    for idx = 0 to t.cfg.hp_indices - 1 do
      R.Atomic.set row.(idx) none
    done;
    Array.fill t.owned.(sid) 0 t.cfg.hp_indices none;
    if t.limbo.(sid) <> [] then scan t sid;
    (match t.limbo.(sid) with
    | [] -> ()
    | survivors ->
        t.limbo.(sid) <- [];
        t.limbo_len.(sid) <- 0;
        Metrics.Counter.add t.m_orphaned (List.length survivors);
        Mutex.lock t.orphan_lock;
        t.orphans <- survivors @ t.orphans;
        Mutex.unlock t.orphan_lock);
    t.since_scan.(sid) <- 0;
    Slot_registry.release t.reg s

  let create (cfg : Smr_intf.config) =
    let t =
      {
        cfg;
        counters = Lifecycle.make_counters ~mem:(Smr_intf.mem_config cfg) ();
        era = R.Atomic.make 0;
        reg = Slot_registry.create ~capacity:cfg.max_threads;
        reservations =
          Array.init cfg.max_threads (fun _ ->
              Array.init cfg.hp_indices (fun _ -> R.Atomic.make none));
        owned =
          Array.init cfg.max_threads (fun _ -> Array.make cfg.hp_indices none);
        limbo = Array.make cfg.max_threads [];
        limbo_len = Array.make cfg.max_threads 0;
        since_scan = Array.make cfg.max_threads 0;
        orphans = [];
        orphan_lock = Mutex.create ();
        on_pressure = ignore;
        alloc_clock = Stdlib.Atomic.make 0;
        m_scans = Metrics.Counter.make "scans";
        m_scanned = Metrics.Counter.make "scanned_nodes";
        m_era_advances = Metrics.Counter.make "era_advances";
        m_orphaned = Metrics.Counter.make "orphaned";
        m_adopted = Metrics.Counter.make "adopted";
      }
    in
    t.on_pressure <-
      (fun () -> scan t (Slot_registry.ensure t.reg ~tid:(R.self ())));
    t

  (* Era bumps happen on allocation, every [era_freq] allocations, as in the
     original HE and in Hyaline-S (Fig. 5, init_node). Budget relief is one
     own-thread scan: published eras pin only overlapping lifespans. *)
  let alloc ?bytes t payload =
    let mem_bytes =
      node_overhead_bytes
      + Option.value bytes ~default:t.cfg.Smr_intf.node_bytes
    in
    R.alloc_point ~bytes:mem_bytes;
    let c = Stdlib.Atomic.fetch_and_add t.alloc_clock 1 in
    if c mod t.cfg.era_freq = t.cfg.era_freq - 1 then begin
      R.Atomic.incr t.era;
      Metrics.Counter.incr t.m_era_advances
    end;
    {
      payload;
      state =
        Lifecycle.on_alloc_hot ~bytes:mem_bytes ~relieve:t.on_pressure
          ~scheme:scheme_name t.counters;
      birth = R.Atomic.get t.era;
      retire_era = none;
    }

  let retire t g n =
    Lifecycle.on_retire ~scheme:scheme_name n.state t.counters;
    n.retire_era <- R.Atomic.get t.era;
    t.limbo.(g.sid) <- n :: t.limbo.(g.sid);
    t.limbo_len.(g.sid) <- t.limbo_len.(g.sid) + 1;
    t.since_scan.(g.sid) <- t.since_scan.(g.sid) + 1;
    if t.since_scan.(g.sid) >= t.cfg.batch_size then begin
      t.since_scan.(g.sid) <- 0;
      scan t g.sid
    end

  let refresh t g =
    leave t g;
    enter t

  (* Live slots only; orphans with no live adopter are partitioned against
     the (then empty) published-era set directly. *)
  (* Mid-run reclaimer entry point: rescan live slots against the current
     published eras; orphans wait for the quiescent [flush]. *)
  let relieve t = Slot_registry.iter_live t.reg (fun sid -> scan t sid)

  let flush t =
    Slot_registry.iter_live t.reg (fun sid -> scan t sid);
    Mutex.lock t.orphan_lock;
    let os = t.orphans in
    t.orphans <- [];
    Mutex.unlock t.orphan_lock;
    match os with
    | [] -> ()
    | _ ->
        let eras = published_eras t in
        let reserved n =
          List.exists (fun r -> n.birth <= r && r <= n.retire_era) eras
        in
        let keep, free = List.partition reserved os in
        Metrics.Counter.add t.m_adopted (List.length free);
        List.iter
          (fun n -> Lifecycle.on_free ~scheme:scheme_name n.state t.counters)
          free;
        (match keep with
        | [] -> ()
        | _ ->
            Mutex.lock t.orphan_lock;
            t.orphans <- keep @ t.orphans;
            Mutex.unlock t.orphan_lock)

  let stats t = Lifecycle.stats t.counters

  let metrics t =
    Lifecycle.snapshot ~scheme:scheme_name
      ~series:
        (Metrics.series_of
           [
             t.m_scans;
             t.m_scanned;
             t.m_era_advances;
             t.m_orphaned;
             t.m_adopted;
           ]
        @ Slot_registry.series t.reg)
      t.counters
end
