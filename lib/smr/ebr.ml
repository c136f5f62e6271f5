(** Epoch-based reclamation — the paper's [Epoch] baseline [18,19,21,35].

    A global epoch clock plus one reservation word per thread. [enter]
    publishes the current epoch; [retire] tags the node with the epoch at
    unlink time and, every [batch_size] retirements, scans all reservations
    (the O(n) cost Table 1 attributes to EBR) and frees every own node whose
    retire epoch precedes the oldest active reservation.

    Not robust: one stalled reader pins its reservation and blocks all
    subsequent frees — exactly the behaviour Fig. 10a demonstrates. *)

module Make (R : Smr_runtime.Runtime_intf.S) = struct
  let scheme_name = "Epoch"
  let robust = false

  module R = R

  let inactive = max_int

  type 'a node = { payload : 'a; state : Lifecycle.cell }

  type 'a t = {
    cfg : Smr_intf.config;
    counters : Lifecycle.counters;
    epoch : int R.Atomic.t;
    reg : Slot_registry.t;
    reservations : int R.Atomic.t array;  (* slot-indexed *)
    (* Slot-local retire lists: (retire_epoch, node), newest first. *)
    limbo : (int * 'a node) list array;
    since_scan : int array;
    (* Limbo nodes handed off by departed threads (deregister could not
       free them); adopted by the next scan. Plain state under a mutex:
       uncosted, so adoption never perturbs the schedule. *)
    mutable orphans : (int * 'a node) list;
    orphan_lock : Mutex.t;
    mutable on_pressure : unit -> unit;
        (* budget relief, one own-thread scan: built once at [create] so
           the allocation path does not close over [t] per node *)
    (* Metrics (plain atomics, no simulated cost). *)
    m_epoch_advances : Metrics.Counter.t;
    m_scans : Metrics.Counter.t;
    m_scanned : Metrics.Counter.t;
    m_orphaned : Metrics.Counter.t;
    m_adopted : Metrics.Counter.t;
  }

  type 'a guard = { sid : int  (* registered slot id *) }

  (* Per-node scheme overhead in modelled bytes: the retire-epoch tag and
     the limbo-list link (two words). *)
  let node_overhead_bytes = 16

  let data n =
    Lifecycle.check_not_freed ~scheme:scheme_name ~what:"data" n.state;
    n.payload

  let enter t =
    let sid = Slot_registry.ensure t.reg ~tid:(R.self ()) in
    R.Atomic.set t.reservations.(sid) (R.Atomic.get t.epoch);
    { sid }

  let leave t g = R.Atomic.set t.reservations.(g.sid) inactive

  (* Only the currently registered slots are read (ascending slot order,
     so the charged loads are deterministic) — the live-slot scan the
     churn refactor introduced; departed threads no longer pin the
     horizon with stale reservations. *)
  let oldest_reservation t =
    let oldest = ref inactive in
    Slot_registry.iter_live t.reg (fun i ->
        let r = R.Atomic.get t.reservations.(i) in
        if r < !oldest then oldest := r);
    !oldest

  (* Move the global orphan list into this slot's limbo so the scan below
     frees whatever the horizon allows. Uncosted bookkeeping. *)
  let adopt_orphans t sid =
    Mutex.lock t.orphan_lock;
    let os = t.orphans in
    t.orphans <- [];
    Mutex.unlock t.orphan_lock;
    match os with
    | [] -> ()
    | _ ->
        Metrics.Counter.add t.m_adopted (List.length os);
        t.limbo.(sid) <- os @ t.limbo.(sid)

  (* Advance the epoch if every active thread has caught up with it, then
     free own limbo nodes older than the oldest reservation. *)
  let scan t sid =
    Metrics.Counter.incr t.m_scans;
    adopt_orphans t sid;
    Metrics.Counter.add t.m_scanned (List.length t.limbo.(sid));
    let e = R.Atomic.get t.epoch in
    if oldest_reservation t >= e then
      if R.Atomic.compare_and_set t.epoch e (e + 1) then
        Metrics.Counter.incr t.m_epoch_advances;
    let horizon = oldest_reservation t in
    let keep, free =
      List.partition (fun (re, _) -> re >= horizon) t.limbo.(sid)
    in
    t.limbo.(sid) <- keep;
    List.iter
      (fun (_, n) -> Lifecycle.on_free ~scheme:scheme_name n.state t.counters)
      free

  let register ?tid t =
    let tid = match tid with Some tid -> tid | None -> R.self () in
    let s = Slot_registry.register t.reg ~tid in
    (* Publish the (inactive) reservation word: the one charged store EBR
       registration costs. *)
    R.Atomic.set t.reservations.(s.Slot_registry.id) inactive;
    s

  let deregister t (s : Slot_registry.slot) =
    let sid = s.Slot_registry.id in
    R.Atomic.set t.reservations.(sid) inactive;
    if t.limbo.(sid) <> [] then scan t sid;
    (match t.limbo.(sid) with
    | [] -> ()
    | survivors ->
        (* The DEBRA handoff: nodes this thread can no longer wait out go
           to the global orphan list for the next scan to adopt. *)
        t.limbo.(sid) <- [];
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
        epoch = R.Atomic.make 0;
        reg = Slot_registry.create ~capacity:cfg.max_threads;
        reservations =
          Array.init cfg.max_threads (fun _ -> R.Atomic.make inactive);
        limbo = Array.make cfg.max_threads [];
        since_scan = Array.make cfg.max_threads 0;
        orphans = [];
        orphan_lock = Mutex.create ();
        on_pressure = ignore;
        m_epoch_advances = Metrics.Counter.make "epoch_advances";
        m_scans = Metrics.Counter.make "scans";
        m_scanned = Metrics.Counter.make "scanned_nodes";
        m_orphaned = Metrics.Counter.make "orphaned";
        m_adopted = Metrics.Counter.make "adopted";
      }
    in
    t.on_pressure <-
      (fun () -> scan t (Slot_registry.ensure t.reg ~tid:(R.self ())));
    t

  (* Budget relief: one own-thread scan. Under a stalled reservation the
     horizon is pinned and the scan frees nothing — EBR then genuinely runs
     out of memory, the non-robustness the footprint figure shows. *)
  let alloc ?bytes t payload =
    let bytes =
      node_overhead_bytes
      + Option.value bytes ~default:t.cfg.Smr_intf.node_bytes
    in
    R.alloc_point ~bytes;
    {
      payload;
      state =
        Lifecycle.on_alloc_hot ~bytes ~relieve:t.on_pressure
          ~scheme:scheme_name t.counters;
    }

  let retire t g n =
    Lifecycle.on_retire ~scheme:scheme_name n.state t.counters;
    let sid = g.sid in
    (* Read the epoch (a charged load, hence a yield point) before touching
       the limbo list: with a background reclaimer scanning this slot
       mid-run, capturing the list on the left of the cons and writing it
       back after the yield would resurrect nodes the reclaimer just
       freed. *)
    let e = R.Atomic.get t.epoch in
    t.limbo.(sid) <- (e, n) :: t.limbo.(sid);
    t.since_scan.(sid) <- t.since_scan.(sid) + 1;
    if t.since_scan.(sid) >= t.cfg.batch_size then begin
      t.since_scan.(sid) <- 0;
      scan t sid
    end

  let protect (_ : _ t) (_ : _ guard) ~idx:_ ~read ~target:_ = read ()
  let transfer (_ : _ t) (_ : _ guard) ~idx:_ (_ : _ node) = ()

  let refresh t g =
    leave t g;
    enter t

  (* Live slots only (the former full 0..max_threads-1 sweep charged
     O(max_threads^2) reads even when two threads ever ran). If no slot is
     live, nothing adopted the orphans above: with every reservation
     cleared the horizon is open, so partition them directly. *)
  (* Mid-run reclaimer entry point: rescan live slots (each scan tries to
     advance the epoch and frees eligible limbo); orphans wait for the
     quiescent [flush]. *)
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
        let horizon = oldest_reservation t in
        let keep, free = List.partition (fun (re, _) -> re >= horizon) os in
        Metrics.Counter.add t.m_adopted (List.length free);
        List.iter
          (fun (_, n) ->
            Lifecycle.on_free ~scheme:scheme_name n.state t.counters)
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
             t.m_epoch_advances;
             t.m_scans;
             t.m_scanned;
             t.m_orphaned;
             t.m_adopted;
           ]
        @ Slot_registry.series t.reg)
      t.counters
end
