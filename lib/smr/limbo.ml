(** The limbo front-end the four scanning baselines share: Epoch, HP, HE
    and IBR (DESIGN.md §15 "One limbo front-end").

    Each of them keeps a per-thread list of retired nodes (its {e limbo})
    and, every so often, scans it against a snapshot of the published
    reservations; only the kind of reservation differs. Brown's DEBRA
    builds all of them from one limbo bag, one scan and one
    departing-thread handoff, and so does this module: the limbo lists,
    the orphan list and its adoption, the scan skeleton, registration,
    the deregister handoff, [relieve], [flush], budget relief and the
    shared counters live here once.

    A scheme keeps its node and reservation types, its reader path
    ([enter], [leave], [protect], [transfer]) and supplies its hooks once,
    at {!Make.create}, so no closure is built per call:
    - [clear sid]: the charged publication of an empty reservation row,
      shared by register and deregister;
    - [tag n]: the limbo entry for a retired node, stamped with the
      charged read of the epoch or era (nothing for HP) before the list
      push;
    - [advance ()]: the charged step a scan takes before its snapshot
      (Epoch's epoch-advance attempt; nothing for the others);
    - [snapshot ()]: the charged reservation reads, returning the pure
      "still reserved" test the scan partitions with;
    - the {!trigger} policy. *)

(** When a retire triggers an own-slot scan. *)
type trigger =
  | Every_batch  (** every [batch_size] retires (Epoch, HE, IBR) *)
  | Full_limbo
      (** whenever the limbo holds [batch_size] nodes, survivors of the
          last scan included (HP) *)

module Make (R : Smr_runtime.Runtime_intf.S) = struct
  (* ['n] is the scheme's node, ['e] its limbo entry: the node itself,
     or Epoch's (retire epoch, node) pair. A tag field in Epoch's node
     instead of the pair saves 2.4 minor words per retire but costs a
     word in every node a reader traverses: [native-list] Epoch ran about
     10% slower with it. *)
  type ('n, 'e) t = {
    cfg : Smr_intf.config;
    scheme : string;
    counters : Lifecycle.counters;
    reg : Slot_registry.t;
    (* Hooks, fixed at [create]. *)
    cell : 'e -> Lifecycle.cell;
    clear : int -> unit;
    tag : 'n -> 'e;
    advance : unit -> unit;
    snapshot : unit -> 'e -> bool;
    trigger : trigger;
    (* Slot-local retire lists, newest first, with their lengths and the
       retires since the last scan. *)
    limbo : 'e list array;
    limbo_len : int array;
    since_scan : int array;
    (* Limbo nodes handed off by departed threads (deregister could not
       free them); adopted by the next scan. Plain state under a mutex:
       uncosted, so adoption never perturbs the schedule. *)
    mutable orphans : 'e list;
    orphan_lock : Mutex.t;
    mutable on_pressure : unit -> unit;
        (* budget relief, one own-thread scan: built once at [create] so
           the allocation path does not close over [t] per node *)
    (* Metrics (plain atomics, no simulated cost). *)
    m_scans : Metrics.Counter.t;
    m_scanned : Metrics.Counter.t;
    m_orphaned : Metrics.Counter.t;
    m_adopted : Metrics.Counter.t;
  }

  let take_orphans f =
    Mutex.lock f.orphan_lock;
    let os = f.orphans in
    f.orphans <- [];
    Mutex.unlock f.orphan_lock;
    os

  let give_orphans f ns =
    Mutex.lock f.orphan_lock;
    f.orphans <- ns @ f.orphans;
    Mutex.unlock f.orphan_lock

  (* The DEBRA handoff: nodes a departed thread can no longer wait out go
     to the global orphan list for the next scan to adopt. *)
  let hand_off f ns =
    Metrics.Counter.add f.m_orphaned (List.length ns);
    give_orphans f ns

  (* Move the global orphan list into this slot's limbo so the scan frees
     whatever the reservations allow. Uncosted bookkeeping. *)
  let adopt f sid =
    match take_orphans f with
    | [] -> ()
    | os ->
        let n = List.length os in
        Metrics.Counter.add f.m_adopted n;
        f.limbo.(sid) <- os @ f.limbo.(sid);
        f.limbo_len.(sid) <- f.limbo_len.(sid) + n

  let free_all f ns =
    List.iter
      (fun n -> Lifecycle.on_free ~scheme:f.scheme (f.cell n) f.counters)
      ns

  (* Adopt the orphans, detach the slot's limbo, take the charged
     snapshot (the O(n) or O(mn) reads of Table 1), then free every
     detached node it does not reserve. The snapshot's reads yield, and
     [relieve] scans other threads' slots, so the slot's owner may retire
     meanwhile: a node retired after the snapshot began may be reserved
     by a reader whose publication the snapshot missed, so only the
     detached nodes are judged. The survivors go back ahead of whatever
     was retired meanwhile — or, if the owner deregistered during the
     snapshot (finding its limbo detached, it had nothing to hand off),
     to the orphan list. *)
  let scan f sid =
    Metrics.Counter.incr f.m_scans;
    adopt f sid;
    Metrics.Counter.add f.m_scanned f.limbo_len.(sid);
    let detached = f.limbo.(sid) in
    f.limbo.(sid) <- [];
    f.advance ();
    let keep, free = List.partition (f.snapshot ()) detached in
    (match (keep, f.limbo.(sid)) with
    | [], _ -> ()
    | _ when not (Slot_registry.is_live f.reg sid) -> hand_off f keep
    | _, [] -> f.limbo.(sid) <- keep
    | _, newer -> f.limbo.(sid) <- keep @ newer);
    f.limbo_len.(sid) <- List.length f.limbo.(sid);
    free_all f free

  let create ~scheme ~cell ~clear ~tag ~advance ~snapshot ~trigger
      (cfg : Smr_intf.config) reg =
    let f =
      {
        cfg;
        scheme;
        counters = Lifecycle.make_counters ~mem:(Smr_intf.mem_config cfg) ();
        reg;
        cell;
        clear;
        tag;
        advance;
        snapshot;
        trigger;
        limbo = Array.make cfg.max_threads [];
        limbo_len = Array.make cfg.max_threads 0;
        since_scan = Array.make cfg.max_threads 0;
        orphans = [];
        orphan_lock = Mutex.create ();
        on_pressure = ignore;
        m_scans = Metrics.Counter.make "scans";
        m_scanned = Metrics.Counter.make "scanned_nodes";
        m_orphaned = Metrics.Counter.make "orphaned";
        m_adopted = Metrics.Counter.make "adopted";
      }
    in
    f.on_pressure <-
      (fun () -> scan f (Slot_registry.ensure f.reg ~tid:(R.self ())));
    f

  (* The charged allocation point; returns the modelled bytes, the
     scheme's per-node overhead included. *)
  let alloc_point f ~overhead bytes =
    let bytes = overhead + Option.value bytes ~default:f.cfg.node_bytes in
    R.alloc_point ~bytes;
    bytes

  (* Budget relief on a refused allocation is one own-thread scan: under a
     stalled Epoch reservation it frees nothing and Epoch genuinely runs
     out of memory (the non-robustness the robustness scenario shows); the
     robust schemes' reservations pin only what they cover, so they shed
     pressure gracefully. *)
  let fresh_cell f bytes =
    Lifecycle.on_alloc_hot ~bytes ~relieve:f.on_pressure ~scheme:f.scheme
      f.counters

  (* [cell] is [n]'s lifecycle cell: the retire is counted before the
     tag's yield, where every sampled [unreclaimed] has always seen it. *)
  let retire f sid cell n =
    Lifecycle.on_retire ~scheme:f.scheme cell f.counters;
    (* Tag the node (a charged read, hence a yield point) before touching
       the limbo list: with a background reclaimer scanning this slot
       mid-run, capturing the list on the left of the cons and writing it
       back after the yield would resurrect nodes the reclaimer just
       freed. *)
    let e = f.tag n in
    f.limbo.(sid) <- e :: f.limbo.(sid);
    f.limbo_len.(sid) <- f.limbo_len.(sid) + 1;
    match f.trigger with
    | Full_limbo -> if f.limbo_len.(sid) >= f.cfg.batch_size then scan f sid
    | Every_batch ->
        f.since_scan.(sid) <- f.since_scan.(sid) + 1;
        if f.since_scan.(sid) >= f.cfg.batch_size then begin
          f.since_scan.(sid) <- 0;
          scan f sid
        end

  let register ?tid f =
    let tid = match tid with Some tid -> tid | None -> R.self () in
    let s = Slot_registry.register f.reg ~tid in
    f.clear s.Slot_registry.id;
    s

  let deregister f (s : Slot_registry.slot) =
    let sid = s.Slot_registry.id in
    f.clear sid;
    (match f.limbo.(sid) with [] -> () | _ -> scan f sid);
    (match f.limbo.(sid) with
    | [] -> ()
    | survivors ->
        f.limbo.(sid) <- [];
        f.limbo_len.(sid) <- 0;
        hand_off f survivors);
    f.since_scan.(sid) <- 0;
    Slot_registry.release f.reg s

  (* Mid-run reclaimer entry point: rescan the live slots (each scan
     adopts any orphans and frees what the current reservations allow). *)
  let relieve f = Slot_registry.iter_live f.reg (fun sid -> scan f sid)

  (* Live slots only (a full 0..max_threads-1 sweep would charge
     O(max_threads^2) reads even when two threads ever ran). If no slot is
     live, nothing adopted the orphans: partition them directly against
     the snapshot, which then reads no reservation at all. *)
  let flush f =
    relieve f;
    match take_orphans f with
    | [] -> ()
    | os -> (
        let keep, free = List.partition (f.snapshot ()) os in
        Metrics.Counter.add f.m_adopted (List.length free);
        free_all f free;
        match keep with [] -> () | _ -> give_orphans f keep)

  let stats f = Lifecycle.stats f.counters

  (* The shared series in their fixed order; a scheme's own counters go
     before them ([lead]) or between the scan and handoff counters
     ([mid]). *)
  let metrics ?(lead = []) ?(mid = []) f =
    Lifecycle.snapshot ~scheme:f.scheme
      ~series:
        (Metrics.series_of
           (lead @ [ f.m_scans; f.m_scanned ] @ mid
           @ [ f.m_orphaned; f.m_adopted ])
        @ Slot_registry.series f.reg)
      f.counters

  (** The era clock HE and IBR share: bumped every [era_freq] allocations,
      as in the original HE and in Hyaline-S (Fig. 5, init_node). The
      allocation counter is a plain [Stdlib.Atomic] so that prefill
      (outside any logical thread) can allocate too; the paper counts per
      thread, but only the bump frequency matters. *)
  type clock = {
    era : int R.Atomic.t;
    ticks : int Stdlib.Atomic.t;
    era_freq : int;
    m_era_advances : Metrics.Counter.t;
  }

  let make_clock (cfg : Smr_intf.config) =
    {
      era = R.Atomic.make 0;
      ticks = Stdlib.Atomic.make 0;
      era_freq = cfg.era_freq;
      m_era_advances = Metrics.Counter.make "era_advances";
    }

  (* Count one allocation, bump the era on every [era_freq]-th, and return
     the birth era (a charged read). *)
  let birth_era c =
    let k = Stdlib.Atomic.fetch_and_add c.ticks 1 in
    if k mod c.era_freq = c.era_freq - 1 then begin
      R.Atomic.incr c.era;
      Metrics.Counter.incr c.m_era_advances
    end;
    R.Atomic.get c.era
end
