(* Both effects are payload-free: the step's cost and footprint are
   written into scheduler/thread fields before performing, so a yield
   allocates nothing. *)
type _ Effect.t += Yield : unit Effect.t
type _ Effect.t += Stall : unit Effect.t

(* Thread status as an int, not a variant: the scheduler compares and
   assigns statuses on every switch, and int codes keep that branch-free of
   pointer chasing and safe from polymorphic compare. The continuation
   and start function live in separate mutable fields, valid only in the
   statuses indicated. *)
let st_not_started = 0 (* [fn] valid *)
let st_paused = 1 (* [cont] valid *)
let st_stalled = 2 (* [cont] valid *)
let st_finished = 3

type thread = {
  tid : int;
  churn : bool;
      (* a short-lived session thread created by [spawn_at]: traced as
         Ev_join/Ev_leave instead of Ev_spawn/Ev_finish *)
  mutable st : int;
  mutable fn : unit -> unit;  (* entry point; [dummy_fn] once started *)
  mutable cont : (unit, int) Effect.Deep.continuation;
      (* continuation at the last yield; only read when [st] says so.
         Initialised to an immediate dummy (never continued). *)
  mutable run_pos : int;  (* index in [runnable], or -1 *)
  mutable suspended : bool;  (* externally parked by fault injection *)
  mutable next_cell : int;
      (* cell id of the operation this thread performs when next resumed;
         -1 for unknown (conservatively dependent). With [next_write] (the
         operation mutates the cell) this is the footprint the explorer
         uses to decide which scheduling choices commute. *)
  mutable next_write : bool;
}

type outcome = All_finished | Budget_exhausted | Only_stalled

(* Trace events, delivered to an optional per-scheduler sink. With no sink
   installed the emission sites reduce to a [None] match — no allocation,
   no simulated cost — so tracing is strictly opt-in. *)
type event =
  | Ev_spawn of { tid : int; at : int }
  | Ev_step of { tid : int; cost : int; at : int }
  | Ev_stall of { tid : int; at : int }
  | Ev_unstall of { tid : int; at : int }
  | Ev_finish of { tid : int; at : int }
  | Ev_suspend of { tid : int; at : int }
  | Ev_resume of { tid : int; at : int }
  | Ev_kill of { tid : int; at : int }
  | Ev_join of { tid : int; at : int }
  | Ev_leave of { tid : int; at : int }

type thread_state = Runnable | Stalled | Suspended | Done

type t = {
  rng : Random.State.t;
  mutable threads : thread array;
  mutable count : int;  (* used prefix of [threads] *)
  mutable live : int;  (* not Finished *)
  mutable runnable : thread array;  (* dense set, O(1) pick/add/remove *)
  mutable runnable_count : int;
  mutable clock : int;
  mutable current : int;  (* tid while resuming, -1 otherwise *)
  mutable cur_th : thread;
      (* the thread [current] names while one is running, else
         [dummy_thread] — saves a bounds-checked array load on every
         step and yield *)
  mutable deadline : int;  (* absolute clock bound of the current run *)
  mutable pending : int;
      (* runnable slot already picked in-fiber by the fast path, or -1.
         An int, not a thread pointer, so setting it skips the write
         barrier. When >= 0 the yield handler consumes it and hands off
         to that slot without a decision: the picked thread is runnable
         by construction and the deadline was already checked at the
         pick. *)
  mutable hooked : bool;
      (* [pick_fn <> None || on_decision <> None], cached so the step
         fast path tests one flag *)
  mutable pick_fn : (int -> int) option;
      (* when set, [pick_fn width] chooses the runnable index instead of
         the RNG — the hook the exhaustive explorer drives *)
  mutable on_decision : (unit -> unit) option;
      (* fired at the top of every scheduling decision, before the
         runnable set is inspected — the fault-injection hook: it may
         suspend, resume or kill threads and the decision that follows
         sees the updated runnable set *)
  mutable spawn_queue : (int * (unit -> unit)) list;
      (* deferred joins from [spawn_at], sorted by activation time
         (stable for equal times); activated by the next decision *)
  mutable next_spawn : int;
      (* activation time of the queue head, [max_int] when empty — folded
         into the step fast path's deadline test so churn-free runs pay
         nothing and draw the RNG exactly as before *)
  mutable sleep_at : int array;
      (* binary min-heap of threads parked by [sleep_until], keyed
         lexicographically by (wake_at, seq): [sleep_at]/[sleep_tid]/
         [sleep_seq] are parallel arrays over the used prefix
         [0, sleep_len). The monotone sequence number breaks wake-time
         ties in insertion order, so equal-time sleepers wake FIFO —
         exactly the stable order the sorted-list queue this replaces
         produced — while insert and pop are O(log n) instead of O(n),
         which is what keeps 10^4+ parked open-loop clients affordable. *)
  mutable sleep_tid : int array;
  mutable sleep_seqs : int array;
  mutable sleep_len : int;
  mutable sleep_seq : int;  (* next tie-break ticket, monotone *)
  mutable next_wake : int;
      (* wake time of the heap root, [max_int] when empty *)
  mutable next_timed : int;
      (* [min next_spawn next_wake], cached so the step fast path keeps
         its single timer compare. Timer-free runs hold [max_int] here
         and draw the RNG exactly as before. *)
  mutable tracer : (event -> unit) option;
  mutable handler : (unit, int) Effect.Deep.handler;
      (* the one deep handler shared by every fiber of this scheduler,
         built once at [create] — resuming a thread allocates nothing *)
}

let dummy_fn () = ()

(* An immediate stored where a continuation is expected but never read:
   every read of [cont] is guarded by [st], and the GC is indifferent to
   immediates, so this avoids an option box around every continuation. *)
let dummy_cont : (unit, int) Effect.Deep.continuation = Obj.magic 0

let dummy_thread =
  {
    tid = -1;
    churn = false;
    st = st_finished;
    fn = dummy_fn;
    cont = dummy_cont;
    run_pos = -1;
    suspended = false;
    next_cell = -1;
    next_write = false;
  }

let push_runnable t th =
  if t.runnable_count = Array.length t.runnable then begin
    let cap = max 8 (2 * t.runnable_count) in
    let grown = Array.make cap dummy_thread in
    Array.blit t.runnable 0 grown 0 t.runnable_count;
    t.runnable <- grown
  end;
  t.runnable.(t.runnable_count) <- th;
  th.run_pos <- t.runnable_count;
  t.runnable_count <- t.runnable_count + 1

let drop_runnable t th =
  let pos = th.run_pos in
  assert (pos >= 0);
  let last = t.runnable_count - 1 in
  let moved = t.runnable.(last) in
  t.runnable.(pos) <- moved;
  moved.run_pos <- pos;
  t.runnable.(last) <- dummy_thread;
  t.runnable_count <- last;
  th.run_pos <- -1

let emit t ev = match t.tracer with None -> () | Some f -> f ev

let[@inline] refresh_timed t =
  t.next_timed <-
    (if t.next_spawn < t.next_wake then t.next_spawn else t.next_wake)

let spawn_thread t ~churn f =
  let tid = t.count in
  if tid = Array.length t.threads then begin
    let cap = max 8 (2 * tid) in
    let grown = Array.make cap dummy_thread in
    Array.blit t.threads 0 grown 0 tid;
    t.threads <- grown
  end;
  let th =
    {
      tid;
      churn;
      st = st_not_started;
      fn = f;
      cont = dummy_cont;
      run_pos = -1;
      suspended = false;
      next_cell = -1;
      next_write = false;
    }
  in
  t.threads.(tid) <- th;
  t.count <- t.count + 1;
  t.live <- t.live + 1;
  push_runnable t th;
  emit t
    (if churn then Ev_join { tid; at = t.clock }
     else Ev_spawn { tid; at = t.clock });
  tid

let spawn t f = spawn_thread t ~churn:false f

(* Enqueue a join at absolute clock time [at] (clamped to now). Insertion
   keeps the queue time-sorted and stable, so equal-time joins activate
   in submission order — determinism does not depend on queue tricks. *)
let spawn_at t ~at f =
  let at = if at < t.clock then t.clock else at in
  let rec insert = function
    | [] -> [ (at, f) ]
    | (a, _) :: _ as rest when at < a -> (at, f) :: rest
    | entry :: rest -> entry :: insert rest
  in
  t.spawn_queue <- insert t.spawn_queue;
  (match t.spawn_queue with
  | (a, _) :: _ -> t.next_spawn <- a
  | [] -> assert false);
  refresh_timed t

(* Activate every queued join that is due at the current clock. *)
let activate_due t =
  let rec go () =
    match t.spawn_queue with
    | (at, f) :: rest when at <= t.clock ->
        t.spawn_queue <- rest;
        ignore (spawn_thread t ~churn:true f);
        go ()
    | (at, _) :: _ -> t.next_spawn <- at
    | [] -> t.next_spawn <- max_int
  in
  go ();
  refresh_timed t

let pending_spawns t = List.length t.spawn_queue
let pending_sleeps t = t.sleep_len

(* -- the sleep heap -------------------------------------------------------

   Classic array-backed binary min-heap over (wake_at, seq). Entry [i]'s
   children live at [2i+1]/[2i+2]; the root is the earliest wake, with
   the insertion ticket as tie-break so FIFO order among equal deadlines
   is a heap invariant, not an accident of sift order. *)

let[@inline] sleep_less t i j =
  let ai = Array.unsafe_get t.sleep_at i and aj = Array.unsafe_get t.sleep_at j in
  ai < aj
  || (ai = aj && Array.unsafe_get t.sleep_seqs i < Array.unsafe_get t.sleep_seqs j)

let[@inline] sleep_swap t i j =
  let swap a =
    let x = Array.unsafe_get a i in
    Array.unsafe_set a i (Array.unsafe_get a j);
    Array.unsafe_set a j x
  in
  swap t.sleep_at;
  swap t.sleep_tid;
  swap t.sleep_seqs

let sleep_push t ~at ~tid =
  if t.sleep_len = Array.length t.sleep_at then begin
    let cap = max 8 (2 * t.sleep_len) in
    let grow a =
      let grown = Array.make cap 0 in
      Array.blit a 0 grown 0 t.sleep_len;
      grown
    in
    t.sleep_at <- grow t.sleep_at;
    t.sleep_tid <- grow t.sleep_tid;
    t.sleep_seqs <- grow t.sleep_seqs
  end;
  let i = t.sleep_len in
  t.sleep_at.(i) <- at;
  t.sleep_tid.(i) <- tid;
  t.sleep_seqs.(i) <- t.sleep_seq;
  t.sleep_seq <- t.sleep_seq + 1;
  t.sleep_len <- i + 1;
  (* Sift up. *)
  let rec up i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if sleep_less t i parent then begin
        sleep_swap t i parent;
        up parent
      end
    end
  in
  up i;
  t.next_wake <- t.sleep_at.(0)

(* Remove the root (the earliest (wake_at, seq)) and return its tid. *)
let sleep_pop t =
  let tid = t.sleep_tid.(0) in
  let last = t.sleep_len - 1 in
  t.sleep_len <- last;
  if last > 0 then begin
    t.sleep_at.(0) <- t.sleep_at.(last);
    t.sleep_tid.(0) <- t.sleep_tid.(last);
    t.sleep_seqs.(0) <- t.sleep_seqs.(last);
    (* Sift down. *)
    let rec down i =
      let l = (2 * i) + 1 in
      if l < last then begin
        let r = l + 1 in
        let c = if r < last && sleep_less t r l then r else l in
        if sleep_less t c i then begin
          sleep_swap t c i;
          down c
        end
      end
    in
    down 0
  end;
  t.next_wake <- (if last > 0 then t.sleep_at.(0) else max_int);
  tid

let unstall t tid =
  if tid < 0 || tid >= t.count then invalid_arg "Scheduler.unstall: bad tid";
  let th = t.threads.(tid) in
  if th.st = st_stalled then begin
    th.st <- st_paused;
    if not th.suspended then push_runnable t th;
    emit t (Ev_unstall { tid; at = t.clock })
  end

(* Wake every sleeper whose time has come. A queue entry whose thread was
   meanwhile killed, finished, or externally unstalled is simply dropped
   ([unstall] only acts on stalled threads). *)
let wake_due t =
  while t.sleep_len > 0 && t.sleep_at.(0) <= t.clock do
    unstall t (sleep_pop t)
  done;
  refresh_timed t

(* -- the decision ----------------------------------------------------------

   A decision is the runnable slot to run next (>= 0) or a terminal
   outcome, coded negative so that the handler can hand it back to [run]
   as a plain int. *)
let code_all_finished = -1
let code_budget_exhausted = -2
let code_only_stalled = -3

(* The one decision body, taken by [run] once and by the handler after
   every yield, stall or finish the in-fiber pick did not settle, with
   [current = -1]: the fault hook, due joins and wake-ups, the deadline,
   the idle fast-forward, then the pick. *)
let rec decide t =
  (match t.on_decision with None -> () | Some f -> f ());
  if t.next_spawn <= t.clock then activate_due t;
  if t.next_wake <= t.clock then wake_due t;
  if t.live = 0 && t.next_spawn = max_int then code_all_finished
  else if t.clock >= t.deadline then code_budget_exhausted
  else if t.runnable_count = 0 then
    if t.next_timed < t.deadline then begin
      (* Everything present is stalled (or finished) but a join or a
         wake-up is scheduled: fast-forward the idle time to the next
         timer. [wake_due] always consumes the due queue entries, so this
         makes progress even on stale entries. *)
      t.clock <- t.next_timed;
      if t.next_spawn <= t.clock then activate_due t;
      if t.next_wake <= t.clock then wake_due t;
      decide t
    end
    else if t.live = 0 then code_budget_exhausted
    else code_only_stalled
  else
    match t.pick_fn with
    | Some f ->
        let i = f t.runnable_count in
        if i < 0 || i >= t.runnable_count then
          invalid_arg "Scheduler: pick_fn out of range"
        else i
    | None -> Random.State.int t.rng t.runnable_count

(* Act on a decision inside the handler. A paused slot is resumed by a
   [continue] in tail position: the handler's frame is gone before the
   next fiber runs, so a switch is one stack switch and the stack stays
   flat however many a run makes. A slot not yet started and an outcome
   go back to [run], which starts threads from its own frame. *)
let handoff t i =
  if i < 0 then i
  else
    let th = Array.unsafe_get t.runnable i in
    if th.st = st_not_started then i
    else begin
      t.current <- th.tid;
      t.cur_th <- th;
      Effect.Deep.continue th.cont ()
    end

(* The deep handler is built once per scheduler and reused for every
   fiber: [effc] returns preallocated [Some] closures, so handling a
   yield allocates nothing. Each case books the thread that [cur_th]
   names, then hands off to the next one. *)
let make_handler (t : t) : (unit, int) Effect.Deep.handler =
  let next () =
    (* [cur_th] is left stale: every read is guarded by [current >= 0],
       and skipping the reset saves a write barrier per switch. *)
    t.current <- -1;
    handoff t (decide t)
  in
  let retc () =
    let th = t.cur_th in
    th.st <- st_finished;
    th.fn <- dummy_fn;
    th.next_cell <- -1;
    t.live <- t.live - 1;
    if th.run_pos >= 0 then drop_runnable t th;
    (match t.tracer with
    | None -> ()
    | Some f ->
        if th.churn then f (Ev_leave { tid = th.tid; at = t.clock })
        else f (Ev_finish { tid = th.tid; at = t.clock }));
    next ()
  in
  let on_yield (k : (unit, int) Effect.Deep.continuation) =
    let th = t.cur_th in
    th.st <- st_paused;
    th.cont <- k;
    let i = t.pending in
    if i >= 0 then begin
      (* The yielding fiber already drew the RNG, checked the deadline
         and picked this slot; nothing has touched the runnable set
         since. *)
      t.pending <- -1;
      handoff t i
    end
    else next ()
  in
  let on_stall (k : (unit, int) Effect.Deep.continuation) =
    let th = t.cur_th in
    th.st <- st_stalled;
    th.cont <- k;
    drop_runnable t th;
    (match t.tracer with
    | None -> ()
    | Some f -> f (Ev_stall { tid = th.tid; at = t.clock }));
    next ()
  in
  let some_yield = Some on_yield in
  let some_stall = Some on_stall in
  let effc : type a.
      a Effect.t -> ((a, int) Effect.Deep.continuation -> int) option =
    function
    | Yield -> some_yield
    | Stall -> some_stall
    | _ -> None
  in
  { Effect.Deep.retc; exnc = raise; effc }

let dummy_handler : (unit, int) Effect.Deep.handler =
  { retc = (fun () -> code_all_finished); exnc = raise; effc = (fun _ -> None) }

let create ?(seed = 42) () =
  let t =
    {
      rng = Random.State.make [| seed |];
      threads = [||];
      count = 0;
      live = 0;
      runnable = [||];
      runnable_count = 0;
      clock = 0;
      current = -1;
      cur_th = dummy_thread;
      deadline = max_int;
      pending = -1;
      hooked = false;
      pick_fn = None;
      on_decision = None;
      spawn_queue = [];
      next_spawn = max_int;
      sleep_at = [||];
      sleep_tid = [||];
      sleep_seqs = [||];
      sleep_len = 0;
      sleep_seq = 0;
      next_wake = max_int;
      next_timed = max_int;
      tracer = None;
      handler = dummy_handler;
    }
  in
  t.handler <- make_handler t;
  t

(* -- the domain context ----------------------------------------------------

   Everything the simulator keeps per domain, behind one DLS key: the
   scheduler running on this domain and the cell accounting {!Sim_cell}
   charges into. Each parallel sweep worker runs its own deterministic
   scheduler and prices, counts and numbers its own cells without
   observing the others, and schedulers never migrate between domains,
   so a cell simulated on worker domain k is bit-identical to the same
   cell simulated on the main domain. A cell keeps a pointer to the
   context of the domain that built it, so its operations reach the
   running scheduler and the counters without a lookup. *)
type domain = {
  mutable active : t;  (* the scheduler running here, or [idle] *)
  price : int array;
  op_n : int array;
  op_c : int array;
  mutable next_id : int;
}

(* Stands in for "no scheduler": it never runs, so its [current] stays
   -1 and every step through it is a no-op. Shared by all domains, which
   only ever read it. *)
let idle = create ()

let domain_key : domain Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let price = Array.make Sim_costs.n_classes 0 in
      Sim_costs.set_prices price Sim_costs.default_costs;
      {
        active = idle;
        price;
        op_n = Array.make Sim_costs.n_classes 0;
        op_c = Array.make Sim_costs.n_classes 0;
        next_id = 0;
      })

let[@inline] domain () = Domain.DLS.get domain_key

let self () =
  let t = (domain ()).active in
  if t.current >= 0 then t.current
  else invalid_arg "Scheduler.self: no thread is running"

let inside () = (domain ()).active.current >= 0

(* The step hot path, called once per simulated shared-memory operation.
   Charges the clock, records the footprint and decides the next
   scheduling choice *in-fiber*: when neither the explorer's picker nor
   the fault hook is installed, the decision's checks are statically known
   to pass (the caller is live and runnable), so the only reasons to
   actually suspend are an exhausted budget or the RNG picking a
   different thread. Picking the caller itself — the common case at low
   thread counts and during sequential prefill — costs no effect
   performance at all. The RNG is consulted exactly once per step in
   either path, so the schedule is bit-identical to the pre-fast-path
   scheduler. *)
let[@inline] step_on t cost cell write =
  let th = t.cur_th in
  t.clock <- t.clock + cost;
  th.next_cell <- cell;
  th.next_write <- write;
  (match t.tracer with
  | None -> ()
  | Some f -> f (Ev_step { tid = th.tid; cost; at = t.clock }));
  if t.hooked then Effect.perform Yield
  else if t.clock >= t.deadline then Effect.perform Yield
  else if t.clock >= t.next_timed then
    (* A queued join or a sleeping thread is due: yield without drawing
       the RNG — the decision activates/wakes it and its pick sees the
       updated runnable set. [next_timed] is [max_int] when neither churn
       nor timed sleeps are configured, so timer-free schedules are
       bit-identical. *)
    Effect.perform Yield
  else begin
    let i = Random.State.int t.rng t.runnable_count in
    if Array.unsafe_get t.runnable i != th then begin
      t.pending <- i;
      Effect.perform Yield
    end
  end

let[@inline] step_at d ~cell ~write cost =
  let t = d.active in
  if t.current >= 0 then step_on t cost cell write

let step cost =
  let t = (domain ()).active in
  if t.current >= 0 then step_on t cost (-1) false

let stall () =
  if inside () then Effect.perform Stall
  else invalid_arg "Scheduler.stall: no thread is running"

(* Park the calling thread until the clock reaches [at], without charging
   any cost: the thread stalls and a later decision wakes it (an internal
   [unstall]) once the clock gets there — fast-forwarding idle time when
   nothing else is runnable. This is what open-loop traffic drivers and
   periodic service threads wait on. A no-op when [at] is already due, so
   callers can sleep unconditionally. *)
let sleep_until at =
  let t = (domain ()).active in
  if t.current < 0 then
    invalid_arg "Scheduler.sleep_until: no thread is running"
  else if at > t.clock then begin
    sleep_push t ~at ~tid:t.current;
    refresh_timed t;
    Effect.perform Stall
  end

let check_tid t tid ~what =
  if tid < 0 || tid >= t.count then
    invalid_arg (Printf.sprintf "Scheduler.%s: bad tid %d" what tid)

(* Externally park a thread: it stays in whatever status it had but is
   never scheduled until [resume]. Models a thread preempted by the OS
   (or crashed-but-holding-state) at its current yield point — the fault
   the paper's robustness bounds are stated against. *)
let suspend t tid =
  check_tid t tid ~what:"suspend";
  let th = t.threads.(tid) in
  if (not th.suspended) && th.st <> st_finished then begin
    th.suspended <- true;
    if th.run_pos >= 0 then drop_runnable t th;
    emit t (Ev_suspend { tid; at = t.clock })
  end

let resume t tid =
  check_tid t tid ~what:"resume";
  let th = t.threads.(tid) in
  if th.suspended then begin
    th.suspended <- false;
    if th.st = st_not_started || th.st = st_paused then push_runnable t th;
    emit t (Ev_resume { tid; at = t.clock })
  end

(* Permanently discard a thread. Its continuation (if any) is dropped, so
   thread-local state is abandoned in place — exactly what a crashed
   thread leaves behind. The thread counts as finished afterwards, so a
   run whose other threads complete still reports [All_finished]. *)
let kill t tid =
  check_tid t tid ~what:"kill";
  let th = t.threads.(tid) in
  if th.st <> st_finished then begin
    if th.run_pos >= 0 then drop_runnable t th;
    th.st <- st_finished;
    th.fn <- dummy_fn;
    th.cont <- dummy_cont;
    th.suspended <- false;
    t.live <- t.live - 1;
    emit t (Ev_kill { tid; at = t.clock })
  end

let now t = t.clock
let thread_count t = t.count

let runnable_tid t i =
  if i < 0 || i >= t.runnable_count then
    invalid_arg "Scheduler.runnable_tid: out of range";
  t.runnable.(i).tid

let next_cell t tid =
  check_tid t tid ~what:"next_cell";
  t.threads.(tid).next_cell

let next_write t tid =
  check_tid t tid ~what:"next_write";
  t.threads.(tid).next_write

let state t tid =
  check_tid t tid ~what:"state";
  let th = t.threads.(tid) in
  if th.st = st_finished then Done
  else if th.suspended then Suspended
  else if th.st = st_stalled then Stalled
  else Runnable

(* [run] takes the first decision and acts on it; every later switch
   is a [handoff] inside the handler. What comes back here is a thread
   not yet started, which [run] starts with [match_with] from its own
   frame, so every fiber's handler runs at this one depth, or the
   outcome. *)
let run ?(budget = max_int) t =
  let d = domain () in
  let previous = d.active in
  d.active <- t;
  t.deadline <- (if budget = max_int then max_int else t.clock + budget);
  t.pending <- -1;
  let rec loop i =
    if i >= 0 then begin
      let th = Array.unsafe_get t.runnable i in
      t.current <- th.tid;
      t.cur_th <- th;
      let f = th.fn in
      th.fn <- dummy_fn;
      loop (Effect.Deep.match_with f () t.handler)
    end
    else if i = code_all_finished then All_finished
    else if i = code_budget_exhausted then Budget_exhausted
    else Only_stalled
  in
  Fun.protect
    ~finally:(fun () -> d.active <- previous)
    (fun () -> loop (handoff t (decide t)))

let rehook t =
  t.hooked <- (t.pick_fn != None || t.on_decision != None)

let set_picker t f =
  t.pick_fn <- f;
  rehook t

let set_on_decision t f =
  t.on_decision <- f;
  rehook t

let set_tracer t f = t.tracer <- f
