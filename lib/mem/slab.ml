(** One slab: a fixed run of equally-sized slots carved out with a bump
    pointer. Slabs belong to exactly one size class of an {!Arena} and are
    only ever mutated under the arena lock; the per-slot {e generation}
    counter is the exception — it is read lock-free by the lifecycle
    auditor to tell "use after free" apart from the strictly nastier
    "use after free {e and} reuse" (the ABA case), so it lives in a plain
    [Stdlib.Atomic].

    There is no payload array: nodes are ordinary OCaml records, and the
    slot stands in for the storage they would occupy. What the slab models
    is the {e address identity} of that storage — which slot a node lives
    in, and how many times the slot has been handed out. *)

type t = {
  id : int;  (** arena-wide, for debug printing *)
  class_bytes : int;  (** slot size: the size class this slab serves *)
  capacity : int;  (** slots per slab *)
  mutable carved : int;  (** bump pointer: slots handed out at least once *)
  mutable live : int;  (** slots currently allocated (stats only) *)
}

(** A slot: stable identity of one unit of modelled storage. [gen] counts
    how many times the slot has been (re)allocated; a node that recorded
    generation [g] at birth and later observes [gen <> g] is looking at
    storage that has since been handed to someone else. *)
type slot = { slab : t; index : int; gen : int Stdlib.Atomic.t }

let create ~id ~class_bytes ~capacity =
  if capacity <= 0 then invalid_arg "Slab.create: capacity must be positive";
  { id; class_bytes; capacity; carved = 0; live = 0 }

let full s = s.carved >= s.capacity
let storage_bytes s = s.class_bytes * s.capacity

(* Carve the next never-used slot; caller holds the arena lock and has
   checked [full]. *)
let carve s =
  assert (not (full s));
  let slot = { slab = s; index = s.carved; gen = Stdlib.Atomic.make 0 } in
  s.carved <- s.carved + 1;
  s.live <- s.live + 1;
  slot

let slot_bytes slot = slot.slab.class_bytes
let slot_gen slot = Stdlib.Atomic.get slot.gen

(* Hand a free-listed slot back out: a new generation of the same storage. *)
let reissue slot =
  Stdlib.Atomic.incr slot.gen;
  slot.slab.live <- slot.slab.live + 1

let release slot = slot.slab.live <- slot.slab.live - 1
