(** The safe-memory-reclamation (SMR) scheme interface.

    This is the programming model of Section 2 of the paper: memory blocks
    ("nodes") are allocated, published in a lock-free structure, later
    {i retired} once unlinked, and physically freed by the scheme only when
    no concurrent operation can still reach them. Every data-structure
    operation is bracketed by [enter]/[leave].

    Physical deallocation is replaced by an audited lifecycle
    ([Live → Retired → Freed], see DESIGN.md §1): freeing flips the node to
    [Freed]; any subsequent {!SMR.data} access raises {!Use_after_free}, and
    freeing twice raises {!Double_free}. This turns the paper's safety
    property into a machine-checked invariant. *)

exception Use_after_free of string
(** A node was accessed after the scheme freed it — an SMR safety violation. *)

exception Double_free of string
(** A node was freed twice — an SMR accounting violation. *)

(** Global accounting, kept in plain [Stdlib.Atomic] counters so that
    auditing never perturbs the simulator's cost accounting. The record
    lives in {!Metrics} (it is the compatibility view of a
    {!Metrics.snapshot}) and is re-exported here under its historical
    name. *)
type stats = Metrics.stats = { allocated : int; retired : int; freed : int }

let unreclaimed s = Metrics.unreclaimed_of ~retired:s.retired ~freed:s.freed

let pp_stats ppf s =
  Fmt.pf ppf "allocated=%d retired=%d freed=%d unreclaimed=%d" s.allocated
    s.retired s.freed (unreclaimed s)

type config = {
  max_threads : int;  (** upper bound on dense logical-thread ids *)
  slots : int;  (** [k]: Hyaline slots; must be a power of two *)
  batch_size : int;
      (** Hyaline batch size (clamped to [>= slots + 1]); for HP/HE/IBR the
          retire-list scan threshold; for EBR the epoch-advance frequency *)
  era_freq : int;  (** allocations between era increments (HE/IBR/Hyaline-S) *)
  ack_threshold : int;  (** Hyaline-S stalled-slot detection threshold *)
  adaptive : bool;  (** Hyaline-S adaptive slot resizing (§4.3) *)
  node_bytes : int;
      (** modelled payload bytes of a default node (structures with
          variable-size nodes pass their own count per allocation) *)
  budget_bytes : int option;
      (** arena resident-bytes ceiling; exceeding it triggers the
          backpressure protocol in {!Lifecycle.on_alloc_hot} (DESIGN.md §9) *)
}

(** Hazard/era slots per thread (HP/HE). *)
let hp_indices = 8

let default_config =
  {
    max_threads = 144;
    slots = 128;
    batch_size = 64;
    era_freq = 64;
    ack_threshold = 8192;
    adaptive = false;
    node_bytes = 64;
    budget_bytes = None;
  }

(** The arena configuration a scheme derives from its own config. *)
let mem_config (cfg : config) : Mem.Mem_intf.config =
  {
    Mem.Mem_intf.default_config with
    node_bytes = cfg.node_bytes;
    budget_bytes = cfg.budget_bytes;
  }

(** {2 The nil sentinel}

    "No node" is the immediate 0 standing in at a node type, so a link,
    a hazard slot or a head word holds a bare node and no [Some] box is
    built per update (DESIGN.md §15 "Nil-sentinel links"). Its rules:
    never dereference it and never pass it to {!SMR.data} (test
    {!is_nil} first); use it only at node types that are boxed records,
    so no real node is an immediate and [is_nil], a primitive every call
    site inlines, tests for one. [nil] takes [()] so each use site
    instantiates it at its own node type, and it is opaque to the
    compiler so a record built with it is still allocated fresh rather
    than folded into a shared constant: CASes compare records
    physically. *)

let nil () : 'n = Sys.opaque_identity (Obj.magic 0)

external is_nil : 'n -> bool = "%obj_is_int"

(** The node an optional link holds, or {!nil}: the [target] of a
    structure whose links are still options. *)
let[@inline] of_option = function Some n -> n | None -> nil ()

type slot = Slot_registry.slot = { id : int; gen : int; tid : int }
(** A registered thread's dense per-thread slot (see {!Slot_registry}):
    the index into the scheme's per-thread arrays, generation-stamped so a
    recycled slot's previous occupant cannot deregister the new one. *)

(** Signature implemented by every scheme: Leaky, EBR, HP, HE, IBR and the
    four Hyaline variants. *)
module type SMR = sig
  val scheme_name : string

  val robust : bool
  (** Whether stalled threads cannot prevent reclamation (Table 1). *)

  module R : Smr_runtime.Runtime_intf.S

  type 'a t
  (** Scheme state for one data-structure instance whose payloads have type
      ['a]. *)

  type 'a node
  (** A managed memory block. Compare with physical equality. *)

  type 'a guard
  (** Evidence that the calling thread is inside an [enter]/[leave] bracket. *)

  val create : config -> 'a t

  val alloc : ?bytes:int -> 'a t -> 'a -> 'a node
  (** Allocate and initialise a node (records the birth era where the scheme
      uses one). The storage comes from the scheme's {!Mem.Arena}: [bytes]
      is the modelled payload size (default [config.node_bytes]), to which
      the scheme adds its own per-node overhead. Under a configured
      [budget_bytes] an allocation that cannot be satisfied even after the
      scheme's reclamation-relief attempt raises
      {!Mem.Mem_intf.Out_of_memory}. *)

  val data : 'a node -> 'a
  (** Payload access; raises {!Use_after_free} on a freed node. *)

  val register : ?tid:int -> 'a t -> slot
  (** Join the scheme: acquire a dense per-thread slot (recycled from
      departed threads when possible) and publish whatever per-thread
      state the scheme scans — cleared reservation cells for EBR/HP/HE/
      IBR, {e nothing at all} for the Hyaline engines and Leaky, whose
      registration is pure registry bookkeeping with zero charged
      operations (the §2.4 transparency claim, machine-checked by the
      churn experiment). [tid] defaults to the calling thread
      ([R.self ()]); pass it explicitly to pre-register threads from
      outside a simulated run. Registering an already-registered thread
      or exceeding [config.max_threads] concurrent registrations raises
      [Invalid_argument]. Threads that call {!enter} without registering
      are registered implicitly (bookkeeping only) and never leave. *)

  val deregister : 'a t -> slot -> unit
  (** Leave the scheme: clear the slot's published state, attempt one
      final own-slot scan, hand any still-unreclaimable limbo nodes to
      the scheme's global orphan list (adopted by the next scan — the
      DEBRA handoff problem, visible as the [orphaned]/[adopted] metric
      series), and release the slot for recycling. Must be called
      outside any [enter]/[leave] bracket. Raises [Invalid_argument] on
      a stale or doubly-deregistered slot. *)

  val enter : 'a t -> 'a guard
  (** Begin an operation on the structure. The guard is only valid on the
      calling thread until the matching [leave]. *)

  val leave : 'a t -> 'a guard -> unit
  (** End the operation. Transparency (§2.4): after [leave] the thread owes
      nothing — it never has to revisit nodes it retired. *)

  val retire : 'a t -> 'a guard -> 'a node -> unit
  (** Second step of the two-step reclamation: the node has been unlinked
      from the structure and may be freed once unreachable. *)

  val protect :
    'a t ->
    'a guard ->
    idx:int ->
    read:(unit -> 'b) ->
    target:('b -> 'a node) ->
    'b
  (** Safely read a shared value [read ()] containing a node pointer,
      which [target] extracts as a bare node, or {!nil} when the value
      points at no node. Pointer-based schemes (HP) publish a hazard for
      slot [idx] and validate by re-reading; era-based schemes (HE, IBR,
      Hyaline-S) advance their reservation era; epoch/Hyaline read plainly.
      [target] must allocate nothing and [read] should be built once per
      traversal, not per call: both run on every node a traversal visits.
      [idx] must be stable per pointer role and [< hp_indices]. *)

  val transfer : 'a t -> 'a guard -> idx:int -> 'a node -> unit
  (** Re-publish a node this guard already protects under role [idx] (the
      standard HP transfer rule: the node cannot be freed while its old
      role still holds it). Each scheme decides what that costs: HP
      publishes the hazard; HE and IBR charge a [protect] whose [read] is
      constant; epoch, Leaky and every Hyaline engine do nothing, since
      their reservation already covers every node the guard validated
      until [leave] (the robust readers' access era only rises; DESIGN.md
      §15 "Transfer is a scheme operation"). [idx] obeys [protect]'s
      rules. *)

  val refresh : 'a t -> 'a guard -> 'a guard
  (** End the current operation and start the next one in a single step.
      Semantically [leave] followed by [enter] (and implemented that way by
      every baseline scheme); the Hyaline variants override it with [trim]
      (§3.3), which releases the nodes retired since the guard's handle
      without touching [Head]. *)

  val flush : 'a t -> unit
  (** Drain thread-local pending work across all threads: finalize partial
      Hyaline batches, force scans/epoch advances elsewhere. Only sound at
      quiescence (no thread between [enter] and [leave]); used by tests and
      harness teardown. *)

  val relieve : 'a t -> unit
  (** A bounded, allocation-free reclamation attempt, safe mid-run — what
      a background reclaimer thread calls between requests. Baseline
      schemes rescan every live slot (advancing epochs / freeing eligible
      limbo where reservations permit); the Hyaline engines seal any
      pending batch that already holds the mandatory node count, {e never}
      padding with dummy allocations the way [flush] does (padding under
      memory pressure would recurse into the very allocator the reclaimer
      exists to relieve). Unlike [flush] it does not assume quiescence and
      leaves orphan handoff to the normal scan path.

      Invariant: a scan frees only nodes retired before its snapshot
      began. A baseline scan of another thread's slot yields while it
      reads the reservations, and the slot's owner may retire meanwhile;
      such a node is kept for a later scan, since a reader may have
      protected it after the snapshot read that reader's reservation
      (DESIGN.md §13). *)

  val stats : 'a t -> stats
  (** Thin compatibility view of {!metrics}. *)

  val metrics : 'a t -> Metrics.snapshot
  (** Full metrics snapshot: lifecycle counters, the peak-unreclaimed
      high-water mark, and the scheme-specific series (see {!Metrics}). *)
end

(** Functor shape shared by all schemes. *)
module type SCHEME = functor (R : Smr_runtime.Runtime_intf.S) ->
  SMR with module R = R
