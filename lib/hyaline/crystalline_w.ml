(** Crystalline-W (Nikolaev & Ravindran, arXiv:2108.02763): the wait-free
    flavour — a short validation loop, then the helper handshake (era
    advancers complete published requests before incrementing, see
    {!Engine_single}). *)

module Make (R : Smr_runtime.Runtime_intf.S) =
  Engine_single.Make
    (R)
    (struct
      let scheme_name = "Crystalline-W"

      let reader =
        Engine_single.Handshake { fast_tries = 3; validate_help = true }
    end)
