(** Node lifecycle auditor — the reproduction's stand-in for physical
    [free(3)] (DESIGN.md §1), now backed by a real allocator stand-in: every
    instance owns a {!Mem.Arena}, allocations draw a slot from it and frees
    drain the slot back, so freed storage is genuinely {e reused}
    (DESIGN.md §9). A node remembers the slot generation it was born with;
    when a freed node is touched the auditor can therefore distinguish a
    plain use-after-free from the nastier ABA case where the slot has
    already been handed to a new node.

    All auditing state lives in plain [Stdlib.Atomic] cells: correct under
    the single-domain simulator and under native domains alike, and
    invisible to the simulator's cost model, so auditing never distorts
    measurements (schemes charge allocation explicitly through
    {!Smr_runtime.Runtime_intf.S.alloc_point}).

    Besides the running totals the auditor maintains the
    {e peak-unreclaimed} high-water mark — the largest value
    [retired - freed] ever reached — which is the paper's Fig. 9/10 memory
    footprint observable in its worst-case form.

    {b Pressure protocol} (DESIGN.md §9): when the arena refuses an
    allocation because it would exceed the configured byte budget,
    {!on_alloc_hot} invokes the scheme's [relieve] callback — a bounded
    reclamation attempt on the calling thread's own state — and retries
    once. If the retry still fails, the simulated out-of-memory condition
    {!Mem.Mem_intf.Out_of_memory} is raised; the harness executor records
    it as a failure row instead of aborting the sweep. *)

type state = Live | Retired | Freed

(* The lifecycle state and the birth generation share one unboxed atomic
   int: the low two bits are the state code, the rest is [slot]'s
   generation at this node's birth (DESIGN.md §15). Packing removes the
   [state Atomic.t] heap box the old layout paid per node; the generation
   bits are immutable after birth, so a read-modify-exchange on the packed
   word transitions the state atomically. *)
type cell = {
  sg : int Stdlib.Atomic.t;  (** [(birth_gen lsl 2) lor state_code] *)
  slot : Mem.Arena.slot;  (** the storage this node models occupying *)
}

let st_live = 0
let st_retired = 1
let st_freed = 2
let[@inline] state_code sg = sg land 3
let[@inline] birth_gen sg = sg asr 2

let state_of cell =
  match state_code (Stdlib.Atomic.get cell.sg) with
  | 0 -> Live
  | 1 -> Retired
  | _ -> Freed

type counters = {
  allocated : int Stdlib.Atomic.t;
  retired : int Stdlib.Atomic.t;
  freed : int Stdlib.Atomic.t;
  peak_unreclaimed : int Stdlib.Atomic.t;
  arena : Mem.Arena.t;
}

let make_counters ?(mem = Mem.Mem_intf.default_config) () =
  {
    allocated = Stdlib.Atomic.make 0;
    retired = Stdlib.Atomic.make 0;
    freed = Stdlib.Atomic.make 0;
    peak_unreclaimed = Stdlib.Atomic.make 0;
    arena = Mem.Arena.create ~config:mem ();
  }

let arena c = c.arena

let stats c : Smr_intf.stats =
  {
    allocated = Stdlib.Atomic.get c.allocated;
    retired = Stdlib.Atomic.get c.retired;
    freed = Stdlib.Atomic.get c.freed;
  }

(* Raise the high-water mark to the current [retired - freed]. Monotone
   CAS loop on plain atomics. The mark is maintained {e lazily}: between
   two frees, [retired - freed] only rises, so its maximum over any
   interval is attained just before a free or at an observation point.
   Noting it there — once per free and once per reader — captures exactly
   the same peak as the old note-after-every-retire discipline while the
   retire hot path pays nothing, and batch retirements
   ({!tally_retired}) cost one counter bump for the whole batch. *)
let rec raise_peak_to cell u =
  let p = Stdlib.Atomic.get cell in
  if u > p && not (Stdlib.Atomic.compare_and_set cell p u) then
    raise_peak_to cell u

let note_unreclaimed c =
  raise_peak_to c.peak_unreclaimed
    (Stdlib.Atomic.get c.retired - Stdlib.Atomic.get c.freed)

let peak_unreclaimed c =
  note_unreclaimed c;
  Stdlib.Atomic.get c.peak_unreclaimed

let snapshot ~scheme ~series c : Metrics.snapshot =
  note_unreclaimed c;
  {
    scheme;
    allocated = Stdlib.Atomic.get c.allocated;
    retired = Stdlib.Atomic.get c.retired;
    freed = Stdlib.Atomic.get c.freed;
    peak_unreclaimed = Stdlib.Atomic.get c.peak_unreclaimed;
    series;
    mem = Mem.Arena.stats c.arena;
  }

(* The second phase of the budget protocol, entered after the arena
   refused once: relieve, retry, and on a second refusal raise OOM. Each
   refusal counts one [pressure_events]; the first was counted by the
   [alloc_exn] that raised. *)
let relieve_and_retry ~relieve ~scheme ~bytes counters =
  relieve ();
  match Mem.Arena.alloc_exn counters.arena ~bytes with
  | slot -> slot
  | exception Mem.Arena.Budget ->
      Mem.Arena.note_oom counters.arena;
      raise
        (Mem.Mem_intf.Out_of_memory
           (Printf.sprintf
              "%s: %dB allocation exceeds the %dB budget (resident %dB \
               after reclamation relief)"
              scheme bytes
              (Option.value (Mem.Arena.budget_bytes counters.arena) ~default:0)
              (Mem.Arena.bytes_resident counters.arena)))

let[@inline] fresh_cell slot =
  {
    sg = Stdlib.Atomic.make ((Mem.Arena.slot_gen slot lsl 2) lor st_live);
    slot;
  }

(* The one allocation path, allocation-free itself: both labels are
   required, so no [Some] box is built per call, and every scheme builds
   its [relieve] closure once per instance. [bytes = 0] means the arena's
   configured node size; [relieve] is the scheme's bounded own-thread
   reclamation attempt, run only when the arena refuses (the two-phase
   protocol: refuse -> relieve -> retry -> OOM). *)
let on_alloc_hot ~bytes ~relieve ~scheme counters : cell =
  let bytes =
    if bytes > 0 then bytes else Mem.Arena.node_bytes counters.arena
  in
  let slot =
    match Mem.Arena.alloc_exn counters.arena ~bytes with
    | slot -> slot
    | exception Mem.Arena.Budget ->
        relieve_and_retry ~relieve ~scheme ~bytes counters
  in
  Stdlib.Atomic.incr counters.allocated;
  fresh_cell slot

(* Atomically install state [code], preserving the (immutable) generation
   bits, and return the previous state code. *)
let[@inline] transition cell code =
  let cur = Stdlib.Atomic.get cell.sg in
  state_code (Stdlib.Atomic.exchange cell.sg ((cur land lnot 3) lor code))

(* [tally:false] defers the statistics bump (the Hyaline engines count a
   node as retired when its batch is sealed, matching the magnitudes the
   paper reports — see EXPERIMENTS.md) while still enforcing the
   retire-once lifecycle transition here. The high-water mark is not
   touched here: see {!note_unreclaimed}. *)
let on_retire ?(tally = true) ~scheme cell counters =
  match transition cell st_retired with
  | 0 (* Live *) -> if tally then Stdlib.Atomic.incr counters.retired
  | 1 (* Retired *) -> invalid_arg (scheme ^ ": node retired twice")
  | _ (* Freed *) ->
      raise (Smr_intf.Use_after_free (scheme ^ ": retire after free"))

(* One counter bump for a whole sealed batch — the batched companion of
   the [tally:true] retire path. *)
let tally_retired counters n =
  ignore (Stdlib.Atomic.fetch_and_add counters.retired n)

let on_free ~scheme cell counters =
  (* Note the mark while this node still counts as unreclaimed: the
     lazy discipline's one update per free (see {!note_unreclaimed}). *)
  note_unreclaimed counters;
  match transition cell st_freed with
  | 1 (* Retired *) ->
      Stdlib.Atomic.incr counters.freed;
      (* Drain the slot back to the arena: the next allocation of this size
         class may reissue it under a bumped generation. *)
      Mem.Arena.free counters.arena cell.slot
  | 2 (* Freed *) -> raise (Smr_intf.Double_free scheme)
  | _ (* Live *) ->
      invalid_arg (scheme ^ ": freeing a node that was never retired")

let check_not_freed ~scheme ~what cell =
  let sg = Stdlib.Atomic.get cell.sg in
  if state_code sg = st_freed then
    let msg =
      if Mem.Arena.slot_gen cell.slot <> birth_gen sg then
        scheme ^ ": " ^ what ^ " (use after free; slot since reused — ABA)"
      else scheme ^ ": " ^ what
    in
    raise (Smr_intf.Use_after_free msg)
