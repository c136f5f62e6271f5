(** Deterministic cooperative scheduler for simulated lock-free execution.

    Logical threads are OCaml-5 effect-based fibers multiplexed on the
    calling domain. Every shared-memory operation performed through
    {!Sim_cell} (and hence {!Sim_runtime.Atomic}) yields to the scheduler
    with a cost in abstract time units; the scheduler then picks the next
    runnable thread with a seeded RNG. Identical seeds give identical
    executions, which makes race-heavy SMR tests reproducible, and the cost
    units give a throughput metric that charges each algorithm for exactly
    the atomic operations it performs.

    A thread may park itself forever with {!stall} (used by the robustness
    experiments, Fig. 10a) and be revived with {!unstall}. Threads can
    also be parked {e from outside} with {!suspend}/{!resume} or discarded
    with {!kill} — the fault-injection hooks {!Explore} uses to model
    preempted and crashed threads without any cooperation from the code
    under test. *)

type t

type outcome =
  | All_finished  (** every spawned thread ran to completion *)
  | Budget_exhausted  (** the time budget ran out first *)
  | Only_stalled  (** all remaining threads are stalled — a livelock *)

type access = { cell : int; write : bool }
(** Footprint of one shared-memory operation: the accessed cell's per-run
    id and whether the operation mutates it. Reported by instrumented
    cells via {!step}; two operations commute iff they touch different
    cells or are both reads. *)

(** Trace events emitted to the optional sink installed with
    {!set_tracer}. [at] is the scheduler clock when the event fired. *)
type event =
  | Ev_spawn of { tid : int; at : int }
  | Ev_step of { tid : int; cost : int; at : int }
      (** a thread charged [cost] units and yielded *)
  | Ev_stall of { tid : int; at : int }
  | Ev_unstall of { tid : int; at : int }
  | Ev_finish of { tid : int; at : int }
  | Ev_suspend of { tid : int; at : int }  (** fault-injected park *)
  | Ev_resume of { tid : int; at : int }  (** fault-injected unpark *)
  | Ev_kill of { tid : int; at : int }  (** fault-injected crash *)
  | Ev_join of { tid : int; at : int }
      (** a churn thread scheduled with {!spawn_at} became runnable *)
  | Ev_leave of { tid : int; at : int }
      (** a churn thread finished (its [Ev_finish] analogue) *)

(** Coarse per-thread state, for explorers and fault planners. *)
type thread_state =
  | Runnable  (** in the runnable set (possibly not yet started) *)
  | Stalled  (** parked itself with {!stall} *)
  | Suspended  (** externally parked with {!suspend} *)
  | Done  (** finished or killed *)

val create : ?seed:int -> unit -> t
(** Fresh scheduler. [seed] defaults to 42. *)

val spawn : t -> (unit -> unit) -> int
(** Register a thread; returns its id. May also be called from inside a
    running thread (dynamic thread creation). The thread starts at the
    scheduler's discretion once {!run} is (re-)entered. *)

val spawn_at : t -> at:int -> (unit -> unit) -> unit
(** Schedule a short-lived {e churn} thread to join at absolute clock time
    [at] (clamped to the current clock). The thread id is assigned when
    the join activates, which the trace records as {!Ev_join}; its
    completion is recorded as {!Ev_leave}. Equal-time joins activate in
    submission order. Callable before a run or from inside a running
    thread (a leaving session typically schedules its lane's next
    session). When every present thread is stalled or finished but joins
    are still queued, the run loop fast-forwards the clock to the next
    join instead of reporting [Only_stalled]. With no queued joins the
    scheduler's RNG draws are bit-identical to a scheduler without this
    feature, so churn-free schedules and their golden hashes are
    unchanged. *)

val pending_spawns : t -> int
(** Number of {!spawn_at} joins not yet activated. *)

val sleep_until : int -> unit
(** Park the calling thread until the scheduler clock reaches the absolute
    time given, at zero simulated cost (sleeping is waiting, not work). A
    no-op when the time is already due. The park is a {!stall} with a
    wake-up timer: the run loop revives the thread (as by {!unstall}, so
    the trace shows [Ev_stall]/[Ev_unstall]) once the clock gets there,
    fast-forwarding idle gaps when nothing else is runnable — the
    open-loop traffic driver and periodic background-reclaimer threads
    wait on this. With no sleepers queued the scheduler's RNG draws are
    bit-identical to a scheduler without this feature, so existing
    schedules and golden hashes are unchanged. Raises [Invalid_argument]
    outside a running thread. *)

val pending_sleeps : t -> int
(** Number of {!sleep_until} timers not yet fired. *)

val run : ?budget:int -> t -> outcome
(** Execute until every thread finished, the cost [budget] (default
    unlimited) is exhausted, or only stalled threads remain. Re-entrant in
    the sense that a [Budget_exhausted] or [Only_stalled] run can be
    continued by calling [run] again (e.g. after {!unstall}). *)

val now : t -> int
(** Accumulated cost units consumed so far. *)

val step : ?access:access -> int -> unit
(** Called by instrumented cells from inside a thread: charge [cost] units
    and yield, optionally reporting the footprint of the operation the
    thread will perform when next resumed. Outside any scheduler this is a
    no-op, so simulated structures remain usable from plain sequential
    code and unit tests. *)

(** {2 The domain context}

    Everything the simulator keeps per domain, behind one [Domain.DLS]
    key: the scheduler running on the domain and the cell accounting
    {!Sim_cell} charges into (per-op-class prices, counts and cost, and
    the cell-id counter). {!Sim_cell.make} stores the context in the cell,
    so a cell operation reaches both without a lookup. *)

type domain = {
  mutable active : t;
      (** the scheduler {!run} is executing on this domain; a scheduler
          that never runs when none is *)
  price : int array;  (** per {!Sim_costs} op class *)
  op_n : int array;  (** operations charged, per op class *)
  op_c : int array;  (** cost charged, per op class *)
  mutable next_id : int;  (** the last cell id handed out *)
}

val domain : unit -> domain
(** The calling domain's context. *)

val step_at : domain -> cell:int -> write:bool -> int -> unit
(** Allocation- and lookup-free variant of {!step} for the per-operation
    hot path: the domain context comes from the cell, and the footprint
    is passed as plain [cell]/[write] arguments instead of an
    [access option] box. [cell = -1] means unknown footprint. On the
    calling domain's context it is semantically identical to
    [step ~access:{cell; write} cost]. *)

val stall : unit -> unit
(** Park the calling thread until {!unstall}. *)

val unstall : t -> int -> unit
(** Make a stalled thread runnable again (unless it is also
    {!suspend}ed, in which case it additionally needs {!resume}). *)

val suspend : t -> int -> unit
(** Fault injection: park a thread from outside at its current yield
    point. It keeps all held state (guards, half-done operations) but is
    never scheduled until {!resume}. No-op on finished threads. *)

val resume : t -> int -> unit
(** Undo {!suspend}. No-op unless the thread is currently suspended. *)

val kill : t -> int -> unit
(** Fault injection: permanently discard a thread, dropping its
    continuation — the thread never runs again and its state is abandoned
    in place, like a crash. The thread counts as finished, so the
    remaining threads can still reach [All_finished]. *)

val self : unit -> int
(** Id of the running thread. Raises [Invalid_argument] outside a run. *)

val inside : unit -> bool
(** Whether the caller is executing inside a scheduler-run thread. *)

val live_threads : t -> int
(** Threads spawned and not yet finished (stalled ones included). *)

val thread_count : t -> int
(** Total threads ever spawned on this scheduler. *)

val state : t -> int -> thread_state
(** Coarse state of thread [tid]. *)

val runnable_width : t -> int
(** Size of the current runnable set. *)

val runnable_tid : t -> int -> int
(** [runnable_tid t i] is the thread id occupying runnable slot [i]
    ([0 <= i < runnable_width t]). Slot order is deterministic for a
    deterministic execution, which is what lets explorers record
    schedules as slot indices. *)

val next_access : t -> int -> access option
(** The footprint of the operation thread [tid] performs when next
    resumed, as reported by its last {!step}. [None] when unknown
    (not yet started, or the last yield carried no footprint) — callers
    must treat unknown as conflicting with everything. *)

val next_cell : t -> int -> int
(** Unboxed variant of {!next_access}: the cell id of thread [tid]'s next
    operation, or -1 for unknown. Hot-path explorers use this to compare
    footprints without allocating option boxes. *)

val next_write : t -> int -> bool
(** Whether thread [tid]'s next operation writes its cell. Only
    meaningful when [next_cell t tid >= 0]. *)

val set_picker : t -> (int -> int) option -> unit
(** Override the random scheduling decision: [f width] must return an
    index in [0, width). Used by {!Explore} to enumerate schedules
    systematically; [None] restores seeded random scheduling. *)

val set_on_decision : t -> (unit -> unit) option -> unit
(** Install a hook fired at the top of every {!run}-loop iteration,
    before the runnable set is inspected. The hook may call {!suspend},
    {!resume}, {!unstall} or {!kill}; the decision that follows sees the
    updated runnable set. This is the fault-injection entry point. *)

val set_tracer : t -> (event -> unit) option -> unit
(** Install (or remove, with [None]) an event sink. With no sink the
    emission sites are a single pattern match on [None] — zero simulated
    cost and zero allocation — so executions are bit-identical with
    tracing disabled. The sink must not call back into the scheduler. *)
