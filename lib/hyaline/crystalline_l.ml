(** Crystalline-L (Nikolaev & Ravindran, arXiv:2108.02763): lock-free era
    tracking — Hyaline-1S's reader protocol under its own name, the
    baseline its wait-free sibling is measured against. *)

module Make (R : Smr_runtime.Runtime_intf.S) =
  Engine_single.Make
    (R)
    (struct
      let scheme_name = "Crystalline-L"
      let reader = Engine_single.Eras
    end)
