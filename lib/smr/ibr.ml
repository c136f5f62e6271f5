(** Interval-based reclamation, 2GE variant (Wen et al., PPoPP'18) — the
    paper's [IBR] baseline and the source of the birth-era idea Hyaline-S
    partially adopts.

    Each thread keeps one reservation {i interval} [lower, upper]: [enter]
    sets both to the current era; every dereference raises [upper] to the
    current era. A node lives over [birth, retire]; it is freed when no
    thread's reservation interval intersects its lifespan. Robust — a
    stalled thread pins only nodes overlapping its frozen interval — with
    EBR-like API and O(n) scans. The limbo, the scan and the orphan handoff
    are {!Limbo}'s. *)

module Make (R : Smr_runtime.Runtime_intf.S) = struct
  let scheme_name = "IBR"
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
    lower : int R.Atomic.t array;  (* slot-indexed *)
    upper : int R.Atomic.t array;
  }

  (* Unboxed, so an enter allocates nothing. *)
  type 'a guard = { sid : int } [@@unboxed]

  (* Per-node scheme overhead in modelled bytes: birth and retire eras plus
     the limbo link and length tag (four words). *)
  let node_overhead_bytes = 32

  let data n =
    Lifecycle.check_not_freed ~scheme:scheme_name ~what:"data" n.state;
    n.payload

  let enter t =
    let sid = Slot_registry.ensure t.front.reg ~tid:(R.self ()) in
    let e = R.Atomic.get t.clock.era in
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
    let e = R.Atomic.get t.clock.era in
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

  (* Intervals published by live (registered) slots only, ascending slot
     order: every reservation interval read once (charged O(n) reads),
     then pure interval-overlap tests. *)
  let published_intervals reg lower upper () =
    let intervals = ref [] in
    Slot_registry.iter_live reg (fun sid ->
        let lo = R.Atomic.get lower.(sid) in
        let hi = R.Atomic.get upper.(sid) in
        if lo <> none then intervals := (lo, hi) :: !intervals);
    let intervals = !intervals in
    fun n ->
      List.exists
        (fun (lo, hi) -> lo <= n.retire_era && n.birth <= hi)
        intervals

  let create (cfg : Smr_intf.config) =
    let reg = Slot_registry.create ~capacity:cfg.max_threads in
    (* [upper]'s cells are made before [lower]'s and both before the era's,
       the simulator cell ids they have always had. *)
    let upper = Array.init cfg.max_threads (fun _ -> R.Atomic.make none) in
    let lower = Array.init cfg.max_threads (fun _ -> R.Atomic.make none) in
    let clock = F.make_clock cfg in
    (* Publish the empty interval: two charged stores. *)
    let clear sid =
      R.Atomic.set lower.(sid) none;
      R.Atomic.set upper.(sid) none
    in
    let front =
      F.create ~scheme:scheme_name ~trigger:Limbo.Every_batch
        ~cell:(fun n -> n.state)
        ~clear
        ~tag:(fun n ->
          n.retire_era <- R.Atomic.get clock.era;
          n)
        ~advance:ignore
        ~snapshot:(published_intervals reg lower upper)
        cfg reg
    in
    { front; clock; lower; upper }

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
