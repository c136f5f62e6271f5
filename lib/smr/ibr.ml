(** Interval-based reclamation, 2GE variant (Wen et al., PPoPP'18) — the
    paper's [IBR] baseline and the source of the birth-era idea Hyaline-S
    partially adopts.

    Each thread keeps one reservation {i interval} [lower, upper]: [enter]
    sets both to the current era; every dereference raises [upper] to the
    current era. A node lives over [birth, retire]; it is freed when no
    thread's reservation interval intersects its lifespan. Robust — a
    stalled thread pins only nodes overlapping its frozen interval — with
    EBR-like API and O(n) scans. *)

module Make (R : Smr_runtime.Runtime_intf.S) = struct
  let scheme_name = "IBR"
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
    lower : int R.Atomic.t array;  (* slot-indexed *)
    upper : int R.Atomic.t array;
    limbo : 'a node list array;
    limbo_len : int array;
    since_scan : int array;
    (* Limbo handed off by departed threads, adopted by the next scan. *)
    mutable orphans : 'a node list;
    orphan_lock : Mutex.t;
    mutable on_pressure : unit -> unit;
        (* budget relief, one own-thread scan: built once at [create] so
           the allocation path does not close over [t] per node *)
    alloc_clock : int Stdlib.Atomic.t;
    m_scans : Metrics.Counter.t;
    m_scanned : Metrics.Counter.t;
    m_era_advances : Metrics.Counter.t;
    m_orphaned : Metrics.Counter.t;
    m_adopted : Metrics.Counter.t;
  }

  type 'a guard = { sid : int }

  (* Per-node scheme overhead in modelled bytes: birth and retire eras plus
     the limbo link and length tag (four words). *)
  let node_overhead_bytes = 32

  let data n =
    Lifecycle.check_not_freed ~scheme:scheme_name ~what:"data" n.state;
    n.payload

  let enter t =
    let sid = Slot_registry.ensure t.reg ~tid:(R.self ()) in
    let e = R.Atomic.get t.era in
    R.Atomic.set t.lower.(sid) e;
    R.Atomic.set t.upper.(sid) e;
    { sid }

  let leave t g =
    R.Atomic.set t.lower.(g.sid) none;
    R.Atomic.set t.upper.(g.sid) none

  (* 2GE dereference: raise the upper reservation until it covers the era at
     which the pointer was read, re-reading on each raise. The read of the
     thread's own [upper] stays charged, unlike HE's owner copy: dropping
     it reshapes IBR's schedules and moved its figure-grid footprint by
     11% (DESIGN.md §15, "Baseline reader paths"). *)
  let rec protect_attempt t sid read =
    let v = read () in
    let e = R.Atomic.get t.era in
    if R.Atomic.get t.upper.(sid) >= e then v
    else begin
      R.Atomic.set t.upper.(sid) e;
      protect_attempt t sid read
    end

  let protect t g ~idx:_ ~read ~target:_ = protect_attempt t g.sid read

  (* Raising [upper] to the current era on a transfer is load-bearing over
     the NM tree (DESIGN.md §15 "Transfer is a scheme operation"), so a
     transfer keeps the charges of a protect with a constant read. *)
  let transfer t g ~idx:_ _ = protect_attempt t g.sid ignore

  (* Snapshot every reservation interval once (charged O(n) reads), then
     partition with pure interval-overlap tests. *)
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

  (* Intervals published by live (registered) slots only, ascending slot
     order. *)
  let published_intervals t =
    let intervals = ref [] in
    Slot_registry.iter_live t.reg (fun sid ->
        let lo = R.Atomic.get t.lower.(sid) in
        let hi = R.Atomic.get t.upper.(sid) in
        if lo <> none then intervals := (lo, hi) :: !intervals);
    !intervals

  let scan t sid =
    Metrics.Counter.incr t.m_scans;
    adopt_orphans t sid;
    Metrics.Counter.add t.m_scanned t.limbo_len.(sid);
    let intervals = published_intervals t in
    let reserved n =
      List.exists
        (fun (lo, hi) -> lo <= n.retire_era && n.birth <= hi)
        intervals
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
    (* Publish the empty interval: two charged stores. *)
    let sid = s.Slot_registry.id in
    R.Atomic.set t.lower.(sid) none;
    R.Atomic.set t.upper.(sid) none;
    s

  let deregister t (s : Slot_registry.slot) =
    let sid = s.Slot_registry.id in
    R.Atomic.set t.lower.(sid) none;
    R.Atomic.set t.upper.(sid) none;
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
        lower = Array.init cfg.max_threads (fun _ -> R.Atomic.make none);
        upper = Array.init cfg.max_threads (fun _ -> R.Atomic.make none);
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

  (* Era clock as in HE; budget relief is one own-thread scan — frozen
     reservation intervals pin only overlapping lifespans, so IBR sheds
     pressure gracefully. *)
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
     the (then empty) published-interval set directly. *)
  (* Mid-run reclaimer entry point: rescan live slots against the current
     published intervals; orphans wait for the quiescent [flush]. *)
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
        let intervals = published_intervals t in
        let reserved n =
          List.exists
            (fun (lo, hi) -> lo <= n.retire_era && n.birth <= hi)
            intervals
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
