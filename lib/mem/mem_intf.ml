(** The memory model of the reproduction (DESIGN.md §9).

    Real SMR schemes sit on top of [malloc]/[free]: retired nodes return to
    the allocator, the allocator hands the {e same} storage back out, and
    the paper's memory-efficiency claims (Figs. 9/10, the robustness
    argument for Hyaline-S) are claims about how much of that storage stays
    resident. This interface describes the repo's stand-in: a size-class
    slab {!Arena} that every {!Smr.Lifecycle} instance drains freed nodes
    into and allocates new nodes from, so

    - freed slots are genuinely {e reused} (making the ABA hazards of real
      reclamation reachable by the explorer and visible to the lifecycle
      auditor),
    - residency is measured in {e bytes}, not node counts, and
    - a configurable budget turns unbounded garbage growth into observable
      backpressure and, past it, an out-of-memory failure. *)

exception Out_of_memory of string
(** Raised by {!Smr.Lifecycle.on_alloc_hot} when an allocation exceeds the
    configured budget even after the scheme's pressure-relief callback ran.
    Distinct from [Stdlib.Out_of_memory]: this is a {e simulated} OOM, part
    of the experiment, and the harness records it as a failure row. *)

type config = {
  node_bytes : int;
      (** Modelled payload size of a default node; structures with
          variable-size nodes (skip-list towers, tree routers) pass their
          own byte counts per allocation. *)
  budget_bytes : int option;
      (** Resident-bytes ceiling. [None] (the default) never applies
          backpressure. *)
  slab_slots : int;  (** Slots carved per slab, uniform across classes. *)
}

let default_config = { node_bytes = 64; budget_bytes = None; slab_slots = 64 }

(** Byte-level accounting, all monotone except [bytes_resident] and
    [slabs_live]'s implied occupancy. Mutated under the arena lock but kept
    in plain [Stdlib.Atomic] cells so sampling them mid-run is lock-free
    and invisible to the simulator's cost model. *)
type stats = {
  bytes_resident : int;  (** bytes in live (not yet freed) slots *)
  bytes_hwm : int;  (** high-water mark of [bytes_resident] *)
  slab_bytes : int;  (** bytes of slab storage ever carved from the OS *)
  slab_bytes_hwm : int;  (** equals [slab_bytes]: slabs are never returned *)
  slabs_live : int;
  reuse_hits : int;  (** allocations served from a free list *)
  fresh_allocs : int;  (** allocations that carved a new slot *)
  pressure_events : int;  (** budget hits that triggered backpressure *)
  oom_failures : int;  (** budget hits that survived the relief attempt *)
}

(** Fraction of carved slab storage that is {e not} resident payload —
    free-listed slots plus never-carved tails. 0 when nothing was carved. *)
let fragmentation s =
  if s.slab_bytes = 0 then 0.0
  else 1.0 -. (float_of_int s.bytes_resident /. float_of_int s.slab_bytes)

let pp_stats ppf s =
  Fmt.pf ppf
    "resident=%dB (hwm %dB) slabs=%d (%dB) reuse=%d fresh=%d frag=%.2f \
     pressure=%d oom=%d"
    s.bytes_resident s.bytes_hwm s.slabs_live s.slab_bytes s.reuse_hits
    s.fresh_allocs (fragmentation s) s.pressure_events s.oom_failures

let equal_stats (a : stats) (b : stats) = a = b
