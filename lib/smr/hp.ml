(** Hazard pointers (Michael, 2004) — the paper's [HP] baseline.

    Each thread owns [hp_indices] published hazard slots. Every dereference
    publishes the candidate node and validates it by re-reading the source
    (the per-access store + fence Table 1 blames for HP's slowness).
    Retired nodes go to a thread-local list; when it reaches [batch_size]
    the thread scans all published hazards — O(mn) work — and frees its
    non-hazarded nodes. Robust: a stalled thread pins at most the nodes in
    its own hazard slots. The limbo, the scan and the orphan handoff are
    {!Limbo}'s. *)

module Make (R : Smr_runtime.Runtime_intf.S) = struct
  let scheme_name = "HP"
  let robust = true

  module R = R
  module F = Limbo.Make (R)

  type 'a node = { payload : 'a; state : Lifecycle.cell }

  type 'a t = {
    front : ('a node, 'a node) F.t;
    hazards : 'a node R.Atomic.t array array;
        (* [slot].(idx); {!Smr_intf.nil} when the index is clear *)
  }

  type 'a guard = { sid : int; mutable used : int  (* highest idx + 1 *) }

  (* Per-node scheme overhead in modelled bytes: the limbo link plus the
     hazard record the node may occupy (two words). *)
  let node_overhead_bytes = 16

  let data n =
    Lifecycle.check_not_freed ~scheme:scheme_name ~what:"data" n.state;
    n.payload

  let enter t =
    { sid = Slot_registry.ensure t.front.reg ~tid:(R.self ()); used = 0 }

  let leave t g =
    let slots = t.hazards.(g.sid) in
    for idx = 0 to g.used - 1 do
      R.Atomic.set slots.(idx) (Smr_intf.nil ())
    done;
    g.used <- 0

  (* Publish the candidate and validate by re-reading the source. The
     hazard holds the bare node [target] returned (nil when the value
     points nowhere), so a dereference allocates nothing. *)
  let rec protect_attempt slot read target =
    let v = read () in
    let n = target v in
    R.Atomic.set slot n;
    if Smr_intf.is_nil n then v
    else
      let v' = read () in
      if target v' == n then v' else protect_attempt slot read target

  let protect t g ~idx ~read ~target =
    if idx >= Smr_intf.hp_indices then
      invalid_arg "Hp.protect: idx out of range";
    if idx >= g.used then g.used <- idx + 1;
    protect_attempt t.hazards.(g.sid).(idx) read target

  (* The node is already hazarded under another index, so the validating
     re-read is trivially true: publishing it is the whole transfer. *)
  let transfer t g ~idx n =
    if idx >= Smr_intf.hp_indices then
      invalid_arg "Hp.transfer: idx out of range";
    if idx >= g.used then g.used <- idx + 1;
    R.Atomic.set t.hazards.(g.sid).(idx) n

  (* Hazards of live (registered) slots only, in ascending slot order: the
     charged reads shrink from max_threads x hp_indices to the number of
     threads actually present. One pass over them (the charged O(mn) reads
     of Table 1), then a pure membership test per limbo node. *)
  let published_hazards reg hazards () =
    let published = ref [] in
    Slot_registry.iter_live reg (fun sid ->
        for idx = 0 to Smr_intf.hp_indices - 1 do
          let h = R.Atomic.get hazards.(sid).(idx) in
          if not (Smr_intf.is_nil h) then published := h :: !published
        done);
    let published = !published in
    fun n -> List.memq n published

  let create (cfg : Smr_intf.config) =
    let reg = Slot_registry.create ~capacity:cfg.max_threads in
    let hazards =
      Array.init cfg.max_threads (fun _ ->
          Array.init Smr_intf.hp_indices (fun _ ->
              R.Atomic.make (Smr_intf.nil ())))
    in
    (* Publish the hazard row empty: hp_indices charged stores, the
       per-thread registration cost Table 1 implies for HP. *)
    let clear sid =
      let row = hazards.(sid) in
      for idx = 0 to Smr_intf.hp_indices - 1 do
        R.Atomic.set row.(idx) (Smr_intf.nil ())
      done
    in
    let front =
      F.create ~scheme:scheme_name ~trigger:Limbo.Full_limbo
        ~cell:(fun n -> n.state)
        ~clear ~tag:Fun.id ~advance:ignore
        ~snapshot:(published_hazards reg hazards)
        cfg reg
    in
    { front; hazards }

  let alloc ?bytes t payload =
    let bytes = F.alloc_point t.front ~overhead:node_overhead_bytes bytes in
    { payload; state = F.fresh_cell t.front bytes }

  let retire t g n = F.retire t.front g.sid n.state n
  let register ?tid t = F.register ?tid t.front
  let deregister t s = F.deregister t.front s

  let refresh t g =
    leave t g;
    enter t

  let relieve t = F.relieve t.front
  let flush t = F.flush t.front
  let stats t = F.stats t.front
  let metrics t = F.metrics t.front
end
