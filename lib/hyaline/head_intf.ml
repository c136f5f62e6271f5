(** Operations on a slot's [Head] tuple — the [\[HRef, HPtr\]] pair of §3.1.

    The tuple must be read and updated atomically. The paper gives two
    hardware realisations, abstracted here so the reclamation engine is
    generic over them:

    - {!Head_dwcas}: double-width CAS (x86-64 [cmpxchg16b], ARM64
      [ldaxp/stlxp]) — modelled by an atomic immutable record;
    - {!Llsc_head}: single-width LL/SC with both words in one reservation
      granule (§4.4, Fig. 7) — PPC/MIPS. The PowerPC figures (13–16) run
      Hyaline over this implementation.

    A [view] is a consistent snapshot of the tuple. Updates take the view
    they were computed from and fail if the tuple changed since — exactly
    dwCAS/SC semantics. *)

(** Consistent snapshot of a head tuple holding nodes of type ['n]. *)
type 'n view = { href : int; hptr : 'n option }

module type HEAD_OPS = sig
  val impl_name : string

  module R : Smr_runtime.Runtime_intf.S

  type 'n t

  val make : unit -> 'n t

  val load : 'n t -> 'n view
  (** Atomic snapshot of the tuple. *)

  val enter_faa : 'n t -> 'n view
  (** Atomically increment [HRef], leaving [HPtr] intact; returns the
      pre-increment view (whose [hptr] becomes the caller's handle).
      Fig. 3 line 4 / Fig. 7 [dwFAA]. *)

  val try_insert : 'n t -> seen:'n view -> first:'n -> bool
  (** One attempt to push a retired node: install [HPtr = first] provided
      the tuple still equals [seen] ([HRef] unchanged). Fig. 3 line 38 /
      Fig. 7 [dwCAS_Ptr]. *)

  val try_leave : 'n t -> seen:'n view -> [ `Fail | `Left | `Detached ]
  (** One attempt to decrement [HRef] from [seen]; when [seen.href = 1] the
      final reference also detaches the list ([HPtr := None]).
      [`Detached] reports that this call detached a non-empty list — the
      caller then owes the detached head its predecessor-style [Adjs]
      adjustment (Fig. 3 lines 16–17); [`Left] is a plain decrement. The
      results are constant tags, so a leave allocates no result box. Under
      LL/SC the decrement and the detach are two SCs and the detach can be
      benignly lost to a concurrent [enter_faa] (§4.4), in which case
      [`Left] is returned. *)
end
