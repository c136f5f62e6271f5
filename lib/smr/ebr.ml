(** Epoch-based reclamation — the paper's [Epoch] baseline [18,19,21,35].

    A global epoch clock plus one reservation word per thread. [enter]
    publishes the current epoch; [retire] tags the node with the epoch at
    unlink time and, every [batch_size] retirements, scans all reservations
    (the O(n) cost Table 1 attributes to EBR) and frees every own node whose
    retire epoch precedes the oldest active reservation. The limbo, the
    scan and the orphan handoff are {!Limbo}'s.

    Not robust: one stalled reader pins its reservation and blocks all
    subsequent frees — exactly the behaviour Fig. 10a demonstrates. *)

module Make (R : Smr_runtime.Runtime_intf.S) = struct
  let scheme_name = "Epoch"
  let robust = false

  module R = R
  module F = Limbo.Make (R)

  let inactive = max_int

  type 'a node = { payload : 'a; state : Lifecycle.cell }

  type 'a t = {
    (* Limbo entries are (retire_epoch, node), newest first. *)
    front : ('a node, int * 'a node) F.t;
    epoch : int R.Atomic.t;
    reservations : int R.Atomic.t array;  (* slot-indexed *)
    m_epoch_advances : Metrics.Counter.t;
  }

  (* Unboxed, so an enter allocates nothing. *)
  type 'a guard = { sid : int  (* registered slot id *) } [@@unboxed]

  (* Per-node scheme overhead in modelled bytes: the retire-epoch tag and
     the limbo-list link (two words). *)
  let node_overhead_bytes = 16

  let data n =
    Lifecycle.check_not_freed ~scheme:scheme_name ~what:"data" n.state;
    n.payload

  let enter t =
    let sid = Slot_registry.ensure t.front.reg ~tid:(R.self ()) in
    R.Atomic.set t.reservations.(sid) (R.Atomic.get t.epoch);
    { sid }

  let leave t g = R.Atomic.set t.reservations.(g.sid) inactive

  (* Only the currently registered slots are read (ascending slot order,
     so the charged loads are deterministic) — the live-slot scan the
     churn refactor introduced; departed threads no longer pin the
     horizon with stale reservations. *)
  let oldest_reservation reg reservations =
    let oldest = ref inactive in
    Slot_registry.iter_live reg (fun i ->
        let r = R.Atomic.get reservations.(i) in
        if r < !oldest then oldest := r);
    !oldest

  let create (cfg : Smr_intf.config) =
    let reg = Slot_registry.create ~capacity:cfg.max_threads in
    (* The reservation cells are made before the epoch's, the simulator
       cell ids they have always had. *)
    let reservations =
      Array.init cfg.max_threads (fun _ -> R.Atomic.make inactive)
    in
    let epoch = R.Atomic.make 0 in
    let m_epoch_advances = Metrics.Counter.make "epoch_advances" in
    (* A scan first advances the epoch if every active thread has caught
       up with it, then frees own limbo nodes retired before the oldest
       reservation. *)
    let advance () =
      let e = R.Atomic.get epoch in
      if oldest_reservation reg reservations >= e then
        if R.Atomic.compare_and_set epoch e (e + 1) then
          Metrics.Counter.incr m_epoch_advances
    in
    let snapshot () =
      let horizon = oldest_reservation reg reservations in
      fun (re, _) -> re >= horizon
    in
    (* Publish the (inactive) reservation word: the one charged store EBR
       registration costs. *)
    let clear sid = R.Atomic.set reservations.(sid) inactive in
    let front =
      F.create ~scheme:scheme_name ~trigger:Limbo.Every_batch
        ~cell:(fun (_, n) -> n.state)
        ~clear
        ~tag:(fun n -> (R.Atomic.get epoch, n))
        ~advance ~snapshot cfg reg
    in
    { front; epoch; reservations; m_epoch_advances }

  let alloc ?bytes t payload =
    let bytes = F.alloc_point t.front ~overhead:node_overhead_bytes bytes in
    { payload; state = F.fresh_cell t.front bytes }

  let retire t g n = F.retire t.front g.sid n.state n
  let register ?tid t = F.register ?tid t.front
  let deregister t s = F.deregister t.front s
  let protect (_ : _ t) (_ : _ guard) ~idx:_ ~read ~target:_ = read ()
  let transfer (_ : _ t) (_ : _ guard) ~idx:_ (_ : _ node) = ()

  let refresh t g =
    leave t g;
    enter t

  let relieve t = F.relieve t.front
  let flush t = F.flush t.front
  let stats t = F.stats t.front
  let metrics t = F.metrics ~lead:[ t.m_epoch_advances ] t.front
end
