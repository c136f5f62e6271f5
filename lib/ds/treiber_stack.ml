(** Treiber's lock-free stack — not part of the paper's benchmark quartet,
    but the canonical first structure to put an SMR scheme under (used by
    the quickstart example and several tests). Pop retires the removed
    node; a concurrent pop still holding the old top is exactly the stale
    pointer SMR exists to protect. *)

module Make (S : Smr.Smr_intf.SMR) = struct
  let ds_name = "treiber-stack"

  module S = S
  module A = S.R.Atomic

  type 'v pl = { value : 'v; next : 'v pl S.node option }
  type 'v t = { smr : 'v pl S.t; top : 'v pl S.node option A.t }
  type 'v guard = 'v pl S.guard

  let create cfg = { smr = S.create cfg; top = A.make None }
  let enter t = S.enter t.smr
  let leave t g = S.leave t.smr g
  let refresh t g = S.refresh t.smr g

  let push_with t g value =
    let rec attempt () =
      let top = A.get t.top in
      let node = S.alloc t.smr { value; next = top } in
      if A.compare_and_set t.top top (Some node) then ()
      else begin
        ignore g;
        attempt ()
      end
    in
    attempt ()

  let pop_with t g =
    let rec attempt () =
      let top =
        S.protect t.smr g ~idx:0
          ~read:(fun () -> A.get t.top)
          ~target:Smr.Smr_intf.of_option
      in
      match top with
      | None -> None
      | Some n ->
          let pl = S.data n in
          if A.compare_and_set t.top top pl.next then begin
            S.retire t.smr g n;
            Some pl.value
          end
          else attempt ()
    in
    attempt ()

  (* Protected read of the current top's value; [None] on an empty stack.
     The protect re-validates the pointer, so the dereference is safe even
     if a concurrent pop retires the node right after. *)
  let top_with t g =
    let top =
      S.protect t.smr g ~idx:0
        ~read:(fun () -> A.get t.top)
        ~target:Smr.Smr_intf.of_option
    in
    match top with None -> None | Some n -> Some (S.data n).value

  let push t value =
    let g = enter t in
    push_with t g value;
    leave t g

  let pop t =
    let g = enter t in
    let r = pop_with t g in
    leave t g;
    r

  let register ?tid t = S.register ?tid t.smr
  let deregister t s = S.deregister t.smr s
  let flush t = S.flush t.smr
  let relieve t = S.relieve t.smr
  let stats t = S.stats t.smr
  let metrics t = S.metrics t.smr
end
