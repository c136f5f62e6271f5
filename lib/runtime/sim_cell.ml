(** Scheduler-instrumented shared cells.

    Each operation charges a cost (in abstract time units) and yields to the
    running {!Scheduler}, making every shared-memory access a preemption
    point. The default costs reflect the relative expense of atomic
    operations on modern CPUs (Schweizer, Besta & Hoefler, PACT'15 — the
    paper's own citation [33] for atomic-op costs): loads are cheap,
    plain stores carry a barrier, CAS and swap are the most expensive,
    FAA sits in between.

    Outside a scheduler the operations degrade to plain sequential ones, so
    the same structures work in ordinary unit tests.

    {b A cell is charged on the domain that built it.} {!make} stores the
    building domain's {!Scheduler.domain} context in the cell, and every
    operation steps that domain's running scheduler and bumps that
    domain's counters through it, with no [Domain.DLS] lookup. So a cell
    must be used only on the domain that made it; the sweep executor
    builds every structure inside the run of its cell, on the worker that
    simulates it. Only {!make} and {!charge_alloc}, which have no cell to
    read the context from, look it up. *)

include Sim_costs

let set_costs (c : costs) = set_prices (Scheduler.domain ()).price c
let current_costs () = costs_of_prices (Scheduler.domain ()).price

(* Aggregated view of the per-class counters — the shape the executor's
   result cache serializes, kept as a record for JSON round-trip
   stability. *)
type op_counts = {
  mutable reads : int;
  mutable writes : int;
  mutable plain_writes : int;
  mutable cas_ok : int;
  mutable cas_fail : int;
  mutable faas : int;
  mutable swaps : int;
  mutable allocs : int;
  mutable read_cost : int;
  mutable write_cost : int;
  mutable plain_write_cost : int;
  mutable cas_cost : int;
  mutable faa_cost : int;
  mutable swap_cost : int;
  mutable alloc_cost : int;
}

let zero_counts () =
  {
    reads = 0;
    writes = 0;
    plain_writes = 0;
    cas_ok = 0;
    cas_fail = 0;
    faas = 0;
    swaps = 0;
    allocs = 0;
    read_cost = 0;
    write_cost = 0;
    plain_write_cost = 0;
    cas_cost = 0;
    faa_cost = 0;
    swap_cost = 0;
    alloc_cost = 0;
  }

let reset_counts () =
  let d = Scheduler.domain () in
  Array.fill d.op_n 0 n_classes 0;
  Array.fill d.op_c 0 n_classes 0

(* Snapshot of this domain's counters, for before/after deltas around a
   measured phase (reading plain ints never perturbs the simulation). *)
let snapshot_counts () =
  let { Scheduler.op_n; op_c; _ } = Scheduler.domain () in
  {
    reads = op_n.(k_read);
    writes = op_n.(k_write);
    plain_writes = op_n.(k_plain);
    cas_ok = op_n.(k_cas_ok);
    cas_fail = op_n.(k_cas_fail);
    faas = op_n.(k_faa);
    swaps = op_n.(k_swap);
    allocs = op_n.(k_alloc);
    read_cost = op_c.(k_read);
    write_cost = op_c.(k_write);
    plain_write_cost = op_c.(k_plain);
    cas_cost = op_c.(k_cas_ok) + op_c.(k_cas_fail);
    faa_cost = op_c.(k_faa);
    swap_cost = op_c.(k_swap);
    alloc_cost = op_c.(k_alloc);
  }

(* [diff_counts ~now ~past] — the operations charged between two
   snapshots. *)
let diff_counts ~(now : op_counts) ~(past : op_counts) =
  {
    reads = now.reads - past.reads;
    writes = now.writes - past.writes;
    plain_writes = now.plain_writes - past.plain_writes;
    cas_ok = now.cas_ok - past.cas_ok;
    cas_fail = now.cas_fail - past.cas_fail;
    faas = now.faas - past.faas;
    swaps = now.swaps - past.swaps;
    allocs = now.allocs - past.allocs;
    read_cost = now.read_cost - past.read_cost;
    write_cost = now.write_cost - past.write_cost;
    plain_write_cost = now.plain_write_cost - past.plain_write_cost;
    cas_cost = now.cas_cost - past.cas_cost;
    faa_cost = now.faa_cost - past.faa_cost;
    swap_cost = now.swap_cost - past.swap_cost;
    alloc_cost = now.alloc_cost - past.alloc_cost;
  }

let total_cost c =
  c.read_cost + c.write_cost + c.plain_write_cost + c.cas_cost + c.faa_cost
  + c.swap_cost + c.alloc_cost

type 'a t = { id : int; mutable v : 'a; dom : Scheduler.domain }

(* Cell ids feed the explorer's independence relation (two operations
   commute iff they touch different cells or are both reads). Creation
   order is deterministic under the deterministic scheduler, and the
   counter is domain-local, so ids are stable across replays of the same
   schedule prefix whichever worker domain runs them; [reset_ids] lets a
   stateless explorer restart numbering for every re-execution. *)
let reset_ids () = (Scheduler.domain ()).next_id <- 0

let make v =
  let d = Scheduler.domain () in
  let id = d.next_id + 1 in
  d.next_id <- id;
  { id; v; dom = d }

(* One charge: yield at the cell with the class's price, then bump the
   class counters, all through the context the cell carries. The [k]
   arguments below are literal constants, so every array access is a
   bounds-check-free constant-offset load. *)
let[@inline] charge_in (d : Scheduler.domain) k cell write =
  let cost = Array.unsafe_get d.price k in
  Scheduler.step_at d ~cell ~write cost;
  Array.unsafe_set d.op_n k (Array.unsafe_get d.op_n k + 1);
  Array.unsafe_set d.op_c k (Array.unsafe_get d.op_c k + cost)

let[@inline] charge k c write = charge_in c.dom k c.id write

let get c =
  charge k_read c false;
  c.v

let set c v =
  charge k_write c true;
  c.v <- v

(* Pre-publication store: no ordering needed, plain-store price. *)
let set_plain c v =
  charge k_plain c true;
  c.v <- v

let exchange c v =
  charge k_swap c true;
  let old = c.v in
  c.v <- v;
  old

(* Success is decided by the value visible *after* the yield — the CAS
   takes effect at the resume point, like every other operation here. *)
let compare_and_set c expected desired =
  let d = c.dom in
  let cost = Array.unsafe_get d.price k_cas_ok in
  Scheduler.step_at d ~cell:c.id ~write:true cost;
  if c.v == expected then begin
    Array.unsafe_set d.op_n k_cas_ok (Array.unsafe_get d.op_n k_cas_ok + 1);
    Array.unsafe_set d.op_c k_cas_ok (Array.unsafe_get d.op_c k_cas_ok + cost);
    c.v <- desired;
    true
  end
  else begin
    Array.unsafe_set d.op_n k_cas_fail
      (Array.unsafe_get d.op_n k_cas_fail + 1);
    Array.unsafe_set d.op_c k_cas_fail
      (Array.unsafe_get d.op_c k_cas_fail + cost);
    false
  end

let fetch_and_add c d =
  charge k_faa c true;
  let old = c.v in
  c.v <- old + d;
  old

let incr c = ignore (fetch_and_add c 1)
let decr c = ignore (fetch_and_add c (-1))

(* Allocation preemption point: charged like the cell operations above but
   with no cell access — the arena's internal state is invisible to the
   explorer's independence relation (its lock already serialises it), yet
   the scheduler may preempt here, which is what makes free-then-reuse
   races reachable. *)
let charge_alloc ~bytes:_ = charge_in (Scheduler.domain ()) k_alloc (-1) false
