(** The simulator's cost model: what one shared-memory operation of each
    class costs in abstract time units. {!Scheduler} keeps one price table
    per domain in its domain context, filled from {!default_costs};
    {!Sim_cell} charges from it and re-exports this module. *)

type costs = {
  read : int;
  write : int;
  cas : int;
  faa : int;
  swap : int;
  alloc : int;  (** per-allocation charge: size-class lookup + free-list pop *)
}

(* Calibrated to Schweizer, Besta & Hoefler's measurements (the paper's
   [33]): on modern x86 an uncontended lock-prefixed RMW (CAS/FAA/SWP) and
   a fenced store both cost ≈4-5 L1 loads. [write] models the
   sequentially-consistent store every SMR publication write needs — the
   §3.3 comparison of EBR's writes-with-barriers against Hyaline's
   uncontended CAS hinges on these being comparable. *)
(* [alloc] prices the arena fast path (size-class dispatch plus a
   free-list pop or bump) at a handful of loads — cheap enough that it
   never dominates, expensive enough that allocation is a real preemption
   point in the interleaving space. *)
let default_costs =
  { read = 1; write = 4; cas = 4; faa = 3; swap = 4; alloc = 5 }

(* -- op classes ------------------------------------------------------------

   Operations are int-coded so the hot path indexes flat arrays (price,
   count, accumulated cost) with compile-time-constant indices instead of
   dereferencing a record behind a ref per operation. CAS success and
   failure are distinct classes (the retry-rate statistic) that share one
   price; [plain] is the pre-publication store, priced like a load. *)

let n_classes = 8
let k_read = 0
let k_write = 1
let k_plain = 2
let k_cas_ok = 3
let k_cas_fail = 4
let k_faa = 5
let k_swap = 6
let k_alloc = 7

(* Write a cost model into a price table indexed by op class. *)
let set_prices price (c : costs) =
  price.(k_read) <- c.read;
  price.(k_write) <- c.write;
  price.(k_plain) <- c.read;
  price.(k_cas_ok) <- c.cas;
  price.(k_cas_fail) <- c.cas;
  price.(k_faa) <- c.faa;
  price.(k_swap) <- c.swap;
  price.(k_alloc) <- c.alloc

(* The cost model a price table holds: [set_prices] writes every field. *)
let costs_of_prices price =
  {
    read = price.(k_read);
    write = price.(k_write);
    cas = price.(k_cas_ok);
    faa = price.(k_faa);
    swap = price.(k_swap);
    alloc = price.(k_alloc);
  }
