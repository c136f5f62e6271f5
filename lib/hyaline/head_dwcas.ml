(** Head tuple via double-width CAS (DESIGN.md §1): an atomic cell holding
    an immutable [{href; hptr}] record. A single CAS replaces the whole
    record, so both fields change atomically, and since every update
    installs a freshly allocated record, physical-equality CAS cannot
    suffer ABA. *)

(* Shared head-tuple record type. *)
open Head_intf

module Make (R : Smr_runtime.Runtime_intf.S) = struct
  let impl_name = "dwcas"

  module R = R

  type 'n t = 'n Head_intf.view R.Atomic.t

  let make () =
    R.Atomic.make { Head_intf.href = 0; hptr = Smr.Smr_intf.nil () }
  let load = R.Atomic.get

  (* dwFAA on HRef, emulated with a CAS loop; a failed CAS means another
     thread updated the tuple, which is progress (lock-freedom argument of
     Theorem 2). *)
  let rec enter_faa head =
    let seen = R.Atomic.get head in
    let bumped = { seen with Head_intf.href = seen.href + 1 } in
    if R.Atomic.compare_and_set head seen bumped then seen else enter_faa head

  let try_insert head ~seen ~first =
    R.Atomic.compare_and_set head seen
      { Head_intf.href = seen.href; hptr = first }

  let try_leave head ~seen =
    let last = seen.Head_intf.href = 1 in
    let desired =
      {
        Head_intf.href = seen.href - 1;
        hptr = (if last then Smr.Smr_intf.nil () else seen.hptr);
      }
    in
    if not (R.Atomic.compare_and_set head seen desired) then `Fail
    else if last && not (Smr.Smr_intf.is_nil seen.hptr) then `Detached
    else `Left
end
