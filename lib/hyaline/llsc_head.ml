(** Head tuple via single-width LL/SC with both words in one reservation
    granule — §4.4 and Fig. 7, the PPC/MIPS implementation.

    Model (DESIGN.md §1): the granule is one atomic cell holding an
    immutable [{href; hptr}] record. [LL] is a read that captures the
    record's identity as the reservation; the "ordinary load" of the other
    word is a second, independent read; [SC] is a physical-equality CAS
    against the reserved record — it fails iff {i anything} in the granule
    was written since the LL, exactly the false-sharing behaviour §4.4
    exploits. The comparison against [Expected] therefore happens on a
    possibly-torn two-word view, and single-width atomicity holds only for
    failures — as the paper specifies. *)

(* Shared head-tuple record type. *)
open Head_intf

module Make (R : Smr_runtime.Runtime_intf.S) = struct
  let impl_name = "llsc"

  module R = R

  type 'n t = 'n Head_intf.view R.Atomic.t

  let make () =
    R.Atomic.make { Head_intf.href = 0; hptr = Smr.Smr_intf.nil () }
  let load = R.Atomic.get

  (* Fig. 7 dwFAA: LL(HRef); Load(HPtr); SC(HRef, HRef + 1). *)
  let rec enter_faa head =
    let reserved = R.Atomic.get head in
    let loaded = R.Atomic.get head in
    let desired =
      { Head_intf.href = reserved.href + 1; hptr = reserved.hptr }
    in
    if R.Atomic.compare_and_set head reserved desired then
      (* SC success: the granule was quiescent, so the mixed view was in
         fact consistent. *)
      { Head_intf.href = reserved.href; hptr = loaded.hptr }
    else enter_faa head

  (* Fig. 7 dwCAS_Ptr: LL(HPtr); Load(HRef); compare mixed view; SC(HPtr). *)
  let try_insert head ~seen ~first =
    let reserved = R.Atomic.get head in
    let loaded = R.Atomic.get head in
    reserved.Head_intf.hptr == seen.Head_intf.hptr
    && loaded.Head_intf.href = seen.href
    && R.Atomic.compare_and_set head reserved
         { Head_intf.href = reserved.href; hptr = first }

  (* Fig. 7 dwCAS_Ref for the decrement, then — only when HRef reached 0 —
     the strong loop that sets HPtr to Null unless a concurrent enter
     claimed the list first (§4.4). *)
  let try_leave head ~seen =
    let reserved = R.Atomic.get head in
    let loaded = R.Atomic.get head in
    if
      not
        (reserved.Head_intf.href = seen.Head_intf.href
        && loaded.Head_intf.hptr == seen.hptr)
    then `Fail
    else if
      R.Atomic.compare_and_set head reserved
        { Head_intf.href = seen.href - 1; hptr = reserved.hptr }
    then
      if seen.href = 1 && not (Smr.Smr_intf.is_nil seen.hptr) then begin
        (* Strong dwCAS_Ptr from {0, Curr} to {0, Null}: both fields of the
           expectation matter — a concurrent enter (HRef <> 0) or a
           detach/claim cycle that replaced the list (HPtr <> Curr) means
           the object is no longer ours to detach, and detaching anyway
           would double-grant the slot's Adjs. *)
        let rec detach () =
          let cur = R.Atomic.get head in
          if cur.Head_intf.href <> 0 || cur.hptr != seen.hptr
          then false
          else if
            R.Atomic.compare_and_set head cur
              { Head_intf.href = 0; hptr = Smr.Smr_intf.nil () }
          then true
          else detach ()
        in
        if detach () then `Detached else `Left
      end
      else `Left
    else `Fail
end
