(** Extended interface implemented by the four Hyaline variants and the
    two Crystalline ones: the common {!Smr.Smr_intf.SMR} contract plus the
    operations specific to the paper's algorithm. *)

module type S = sig
  include Smr.Smr_intf.SMR

  val trim : 'a t -> 'a guard -> 'a guard
  (** §3.3: logically [leave] followed by [enter] but without touching
      [Head] — dereferences the nodes retired since the guard's handle and
      returns a guard with a refreshed handle, letting a thread running many
      back-to-back operations release old retirements without paying two
      head updates. *)

  val current_slots : 'a t -> int
  (** Current number of slots [k]; grows under Hyaline-S adaptive resizing
      (§4.3), constant otherwise. *)
end

(** Compile-time flavour selection of the multi-slot engine: the robust
    ("-S") variants add birth eras, per-slot access eras and acks (§4.2).
    The single-slot engine names its reader protocol instead
    ({!Engine_single.reader}). *)
module type FLAVOR = sig
  val scheme_name : string
  val robust : bool
end
