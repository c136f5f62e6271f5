(** Hazard pointers (Michael, 2004) — the paper's [HP] baseline.

    Each thread owns [hp_indices] published hazard slots. Every dereference
    publishes the candidate node and validates it by re-reading the source
    (the per-access store + fence Table 1 blames for HP's slowness).
    Retired nodes go to a thread-local list; when it reaches [batch_size]
    the thread scans all published hazards — O(mn) work — and frees its
    non-hazarded nodes. Robust: a stalled thread pins at most the nodes in
    its own hazard slots. *)

module Make (R : Smr_runtime.Runtime_intf.S) = struct
  let scheme_name = "HP"
  let robust = true

  module R = R

  type 'a node = { payload : 'a; state : Lifecycle.cell }

  type 'a t = {
    cfg : Smr_intf.config;
    counters : Lifecycle.counters;
    reg : Slot_registry.t;
    hazards : 'a node option R.Atomic.t array array;  (* [slot].(idx) *)
    limbo : 'a node list array;
    limbo_len : int array;
    (* Limbo handed off by departed threads, adopted by the next scan. *)
    mutable orphans : 'a node list;
    orphan_lock : Mutex.t;
    mutable on_pressure : unit -> unit;
        (* budget relief, one own-thread scan: built once at [create] so
           the allocation path does not close over [t] per node *)
    m_scans : Metrics.Counter.t;
    m_scanned : Metrics.Counter.t;
    m_orphaned : Metrics.Counter.t;
    m_adopted : Metrics.Counter.t;
  }

  type 'a guard = { sid : int; mutable used : int  (* highest idx + 1 *) }

  (* Per-node scheme overhead in modelled bytes: the limbo link plus the
     hazard record the node may occupy (two words). *)
  let node_overhead_bytes = 16

  let data n =
    Lifecycle.check_not_freed ~scheme:scheme_name ~what:"data" n.state;
    n.payload

  let enter t =
    { sid = Slot_registry.ensure t.reg ~tid:(R.self ()); used = 0 }

  let leave t g =
    let slots = t.hazards.(g.sid) in
    for idx = 0 to g.used - 1 do
      R.Atomic.set slots.(idx) None
    done;
    g.used <- 0

  (* Publish the candidate and validate by re-reading the source. The
     hazard stores [p], the very box [target] returned, so a dereference
     allocates nothing. *)
  let rec protect_attempt slot read target =
    let v = read () in
    match target v with
    | None ->
        R.Atomic.set slot None;
        v
    | Some n as p -> (
        R.Atomic.set slot p;
        let v' = read () in
        match target v' with
        | Some n' when n' == n -> v'
        | Some _ | None -> protect_attempt slot read target)

  let protect t g ~idx ~read ~target =
    if idx >= t.cfg.hp_indices then invalid_arg "Hp.protect: idx out of range";
    if idx >= g.used then g.used <- idx + 1;
    protect_attempt t.hazards.(g.sid).(idx) read target

  (* The node is already hazarded under another index, so the validating
     re-read is trivially true: publishing it is the whole transfer. *)
  let transfer t g ~idx n =
    if idx >= t.cfg.hp_indices then invalid_arg "Hp.transfer: idx out of range";
    if idx >= g.used then g.used <- idx + 1;
    R.Atomic.set t.hazards.(g.sid).(idx) (Some n)

  (* One pass over all published hazards (the charged O(mn) reads of
     Table 1), then a pure membership test per limbo node. *)
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

  (* Hazards of live (registered) slots only, in ascending slot order: the
     charged reads shrink from max_threads x hp_indices to the number of
     threads actually present. *)
  let published_hazards t =
    let published = ref [] in
    Slot_registry.iter_live t.reg (fun sid ->
        for idx = 0 to t.cfg.hp_indices - 1 do
          match R.Atomic.get t.hazards.(sid).(idx) with
          | Some h -> published := h :: !published
          | None -> ()
        done);
    !published

  let scan t sid =
    Metrics.Counter.incr t.m_scans;
    adopt_orphans t sid;
    Metrics.Counter.add t.m_scanned t.limbo_len.(sid);
    let published = published_hazards t in
    let hazarded n = List.memq n published in
    let keep, free = List.partition hazarded t.limbo.(sid) in
    t.limbo.(sid) <- keep;
    t.limbo_len.(sid) <- List.length keep;
    List.iter
      (fun n -> Lifecycle.on_free ~scheme:scheme_name n.state t.counters)
      free

  let register ?tid t =
    let tid = match tid with Some tid -> tid | None -> R.self () in
    let s = Slot_registry.register t.reg ~tid in
    (* Publish the hazard row empty: hp_indices charged stores, the
       per-thread registration cost Table 1 implies for HP. *)
    let row = t.hazards.(s.Slot_registry.id) in
    for idx = 0 to t.cfg.hp_indices - 1 do
      R.Atomic.set row.(idx) None
    done;
    s

  let deregister t (s : Slot_registry.slot) =
    let sid = s.Slot_registry.id in
    let row = t.hazards.(sid) in
    for idx = 0 to t.cfg.hp_indices - 1 do
      R.Atomic.set row.(idx) None
    done;
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
    Slot_registry.release t.reg s

  let create (cfg : Smr_intf.config) =
    let t =
      {
        cfg;
        counters = Lifecycle.make_counters ~mem:(Smr_intf.mem_config cfg) ();
        reg = Slot_registry.create ~capacity:cfg.max_threads;
        hazards =
          Array.init cfg.max_threads (fun _ ->
              Array.init cfg.hp_indices (fun _ -> R.Atomic.make None));
        limbo = Array.make cfg.max_threads [];
        limbo_len = Array.make cfg.max_threads 0;
        orphans = [];
        orphan_lock = Mutex.create ();
        on_pressure = ignore;
        m_scans = Metrics.Counter.make "scans";
        m_scanned = Metrics.Counter.make "scanned_nodes";
        m_orphaned = Metrics.Counter.make "orphaned";
        m_adopted = Metrics.Counter.make "adopted";
      }
    in
    t.on_pressure <-
      (fun () -> scan t (Slot_registry.ensure t.reg ~tid:(R.self ())));
    t

  (* Budget relief: one own-thread scan — frees everything except the few
     nodes pinned by published hazards, so HP degrades gracefully. *)
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
    t.limbo.(g.sid) <- n :: t.limbo.(g.sid);
    t.limbo_len.(g.sid) <- t.limbo_len.(g.sid) + 1;
    if t.limbo_len.(g.sid) >= t.cfg.batch_size then scan t g.sid

  let refresh t g =
    leave t g;
    enter t

  (* Live slots only. If none is live the orphans had no adopter: with no
     published hazard anywhere, partition them directly. *)
  (* Mid-run reclaimer entry point: rescan live slots against the current
     published hazards; orphans wait for the quiescent [flush]. *)
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
        let published = published_hazards t in
        let keep, free =
          List.partition (fun n -> List.memq n published) os
        in
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
           [ t.m_scans; t.m_scanned; t.m_orphaned; t.m_adopted ]
        @ Slot_registry.series t.reg)
      t.counters
end
