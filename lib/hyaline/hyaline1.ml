(** Hyaline-1 — the single-width-CAS specialisation (§3.2, Fig. 4): one
    dedicated slot per thread, wait-free enter/leave. *)

module Make (R : Smr_runtime.Runtime_intf.S) =
  Engine_single.Make
    (R)
    (struct
      let scheme_name = "Hyaline-1"
      let reader = Engine_single.Plain
    end)
