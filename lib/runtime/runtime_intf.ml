(** Abstraction over the shared-memory substrate.

    Every SMR scheme and every lock-free data structure in this repository is
    a functor over {!module-type:S}. Two implementations exist:

    - {!Native_runtime}: [Stdlib.Atomic] and [Domain] — true parallelism,
      used by the stress tests, the native parity ladder and the
      repository benchmark;
    - {!Sim_runtime}: cells instrumented with an effects-based deterministic
      scheduler ({!Scheduler}) — every shared-memory operation is a
      preemption point with a configurable cost, used by all figure
      reproductions so that 144 logical threads can run on one core with
      reproducible interleavings. *)

(** Atomic cells. The subset of [Stdlib.Atomic] the algorithms need, plus
    the convention (crucial for lock-free code on boxed values) that
    [compare_and_set] compares with physical equality. *)
module type ATOMIC = sig
  type 'a t

  val make : 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  (** Publication store: sequentially consistent (fenced). *)

  val set_plain : 'a t -> 'a -> unit
  (** Unordered store for data not yet published (e.g. initialising a
      node's link before the CAS that makes it reachable); costs a plain
      store under the simulator. *)

  val exchange : 'a t -> 'a -> 'a

  val compare_and_set : 'a t -> 'a -> 'a -> bool
  (** [compare_and_set c expected desired] installs [desired] iff the current
      value is physically equal to [expected]. Algorithms must only pass an
      [expected] value previously obtained from [get]/[exchange] on the same
      cell, which rules out ABA on freshly allocated records. *)

  val fetch_and_add : int t -> int -> int
  (** Atomic fetch-and-add; returns the previous value. OCaml native ints are
      63-bit and wrap modulo 2{^63}, which Hyaline's [Adjs] arithmetic
      relies on (see {!Hyaline_core.Batch.adjs}). *)

  val incr : int t -> unit
  val decr : int t -> unit
end

(** A runtime: atomics plus the identity of the calling logical thread. *)
module type S = sig
  val name : string

  module Atomic : ATOMIC

  val self : unit -> int
  (** Dense id of the calling logical thread, assigned by the runner that
      started it. Valid only inside a running thread. *)

  val yield : unit -> unit
  (** Politeness hint; a preemption point under the simulator, a
      [Domain.cpu_relax] natively. *)

  val alloc_point : bytes:int -> unit
  (** Marks (and, under the simulator, charges) a node allocation of
      [bytes] modelled bytes — a costed preemption point, so the window
      between freeing a slot and reusing it is explorable. Natively it
      feeds the {!Native_runtime.alloc_stats} counters instead of a
      clock. *)
end
