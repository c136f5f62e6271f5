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
    (DESIGN.md §15, "Baseline reader paths"). The limbo, the scan and the
    orphan handoff are {!Limbo}'s. *)

module Make (R : Smr_runtime.Runtime_intf.S) = struct
  let scheme_name = "HE"
  let robust = true

  module R = R
  module F = Limbo.Make (R)

  let none = -1

  type 'a node = {
    payload : 'a;
    state : Lifecycle.cell;
    birth : int;
    mutable retire_era : int;
  }

  type 'a t = {
    front : ('a node, 'a node) F.t;
    clock : F.clock;
    reservations : int R.Atomic.t array array;  (* [slot].(idx) = era or none *)
    (* [slot].(idx): the era the slot's owner last published there, or
       [none]. Read and written by the owner only, so plain and uncharged;
       reset wherever the reservation is. *)
    owned : int array array;
  }

  type 'a guard = { sid : int; mutable used : int }

  (* Per-node scheme overhead in modelled bytes: birth and retire eras plus
     the limbo link and length tag (four words). *)
  let node_overhead_bytes = 32

  let data n =
    Lifecycle.check_not_freed ~scheme:scheme_name ~what:"data" n.state;
    n.payload

  let enter t =
    { sid = Slot_registry.ensure t.front.reg ~tid:(R.self ()); used = 0 }

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
    let now = R.Atomic.get t.clock.era in
    if now = era then v else publish_attempt t slot owned idx read now

  (* [idx] already holds [era]: the published get_protected loop, which
     stores only when the clock moved past it. *)
  let hit_attempt t slot owned idx read era =
    let v = read () in
    let now = R.Atomic.get t.clock.era in
    if now = era then v else publish_attempt t slot owned idx read now

  (* The first protect on an index within an operation charges the era
     read, the publish, the pointer read and the validating era read;
     later ones charge only the pointer and era reads while the era holds. *)
  let protect t g ~idx ~read ~target:_ =
    if idx >= Smr_intf.hp_indices then
      invalid_arg "He.protect: idx out of range";
    if idx >= g.used then g.used <- idx + 1;
    let slot = t.reservations.(g.sid).(idx) and owned = t.owned.(g.sid) in
    let era = owned.(idx) in
    if era = none then
      publish_attempt t slot owned idx read (R.Atomic.get t.clock.era)
    else hit_attempt t slot owned idx read era

  (* A transfer moves the reservation onto [idx] like any protect: the era
     published there is what covers the node for the new role. *)
  let transfer t g ~idx _ =
    protect t g ~idx ~read:ignore ~target:Smr_intf.nil

  (* Eras published by live (registered) slots only, ascending slot order:
     every published era read once (charged), then pure interval tests. *)
  let published_eras reg reservations () =
    let eras = ref [] in
    Slot_registry.iter_live reg (fun sid ->
        for idx = 0 to Smr_intf.hp_indices - 1 do
          let r = R.Atomic.get reservations.(sid).(idx) in
          if r <> none then eras := r :: !eras
        done);
    let eras = !eras in
    fun n -> List.exists (fun r -> n.birth <= r && r <= n.retire_era) eras

  let create (cfg : Smr_intf.config) =
    let reg = Slot_registry.create ~capacity:cfg.max_threads in
    (* The reservation cells are made before the era's, the simulator cell
       ids they have always had. *)
    let reservations =
      Array.init cfg.max_threads (fun _ ->
          Array.init Smr_intf.hp_indices (fun _ -> R.Atomic.make none))
    in
    let owned =
      Array.init cfg.max_threads (fun _ ->
          Array.make Smr_intf.hp_indices none)
    in
    let clock = F.make_clock cfg in
    (* Publish the era row empty: hp_indices charged stores. *)
    let clear sid =
      let row = reservations.(sid) in
      for idx = 0 to Smr_intf.hp_indices - 1 do
        R.Atomic.set row.(idx) none
      done;
      Array.fill owned.(sid) 0 Smr_intf.hp_indices none
    in
    let front =
      F.create ~scheme:scheme_name ~trigger:Limbo.Every_batch
        ~cell:(fun n -> n.state)
        ~clear
        ~tag:(fun n ->
          n.retire_era <- R.Atomic.get clock.era;
          n)
        ~advance:ignore
        ~snapshot:(published_eras reg reservations)
        cfg reg
    in
    { front; clock; reservations; owned }

  let alloc ?bytes t payload =
    let bytes = F.alloc_point t.front ~overhead:node_overhead_bytes bytes in
    let birth = F.birth_era t.clock in
    { payload; state = F.fresh_cell t.front bytes; birth; retire_era = none }

  let retire t g n = F.retire t.front g.sid n.state n
  let register ?tid t = F.register ?tid t.front
  let deregister t s = F.deregister t.front s

  let refresh t g =
    leave t g;
    enter t

  let relieve t = F.relieve t.front
  let flush t = F.flush t.front
  let stats t = F.stats t.front
  let metrics t = F.metrics ~mid:[ t.clock.m_era_advances ] t.front
end
