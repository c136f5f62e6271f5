(** Common interface of the benchmark data structures (§6): an integer set
    supporting insert / remove / contains, built over an SMR scheme.

    Each plain operation brackets itself with [enter]/[leave]; the [_with]
    variants take an explicit guard so a caller can run several operations
    under one bracket and use {!CONC_SET.refresh} (Hyaline's trim) between
    them — the Fig. 10b experiment. *)

module type CONC_SET = sig
  val ds_name : string

  module S : Smr.Smr_intf.SMR

  type t
  type guard

  val create : ?buckets:int -> Smr.Smr_intf.config -> t
  (** [buckets] is honoured by the hash map and ignored elsewhere. *)

  val register : ?tid:int -> t -> Smr.Smr_intf.slot
  (** Join the underlying scheme (see {!Smr.Smr_intf.SMR.register}). *)

  val deregister : t -> Smr.Smr_intf.slot -> unit
  (** Leave the underlying scheme; must be outside any bracket. *)

  val enter : t -> guard
  val leave : t -> guard -> unit
  val refresh : t -> guard -> guard

  val insert_with : t -> guard -> int -> bool
  val remove_with : t -> guard -> int -> bool
  val contains_with : t -> guard -> int -> bool

  val insert : t -> int -> bool
  val remove : t -> int -> bool
  val contains : t -> int -> bool

  val flush : t -> unit
  (** Quiescence-only: drain scheme-local pending reclamation. *)

  val relieve : t -> unit
  (** Mid-run-safe bounded reclamation attempt (see
      {!Smr.Smr_intf.SMR.relieve}) — the background reclaimer's tick. *)

  val stats : t -> Smr.Smr_intf.stats

  val metrics : t -> Smr.Metrics.snapshot
  (** Full metrics view of the underlying scheme (see {!Smr.Metrics}). *)
end

let same_opt a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> x == y
  | None, Some _ | Some _, None -> false

(** Derive a set's scheme plumbing from its [smr] accessor — the bracket
    ([enter]/[leave]/[refresh]), registration, draining and accounting
    all forward to the scheme instance the set owns — and the
    self-bracketing operations from the [_with] ones. *)
module Bracket (X : sig
  module S : Smr.Smr_intf.SMR

  type pl
  type t

  val smr : t -> pl S.t
  val insert_with : t -> pl S.guard -> int -> bool
  val remove_with : t -> pl S.guard -> int -> bool
  val contains_with : t -> pl S.guard -> int -> bool
end) =
struct
  let enter t = X.S.enter (X.smr t)
  let leave t g = X.S.leave (X.smr t) g
  let refresh t g = X.S.refresh (X.smr t) g
  let register ?tid t = X.S.register ?tid (X.smr t)
  let deregister t s = X.S.deregister (X.smr t) s
  let flush t = X.S.flush (X.smr t)
  let relieve t = X.S.relieve (X.smr t)
  let stats t = X.S.stats (X.smr t)
  let metrics t = X.S.metrics (X.smr t)

  let bracketed op t key =
    let g = enter t in
    let r = op t g key in
    leave t g;
    r

  let insert t key = bracketed X.insert_with t key
  let remove t key = bracketed X.remove_with t key
  let contains t key = bracketed X.contains_with t key
end
