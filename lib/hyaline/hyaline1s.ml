(** Hyaline-1S — robust Hyaline-1 (§4.2): birth eras with per-slot access
    eras where [touch] is an ordinary write thanks to the 1:1 thread-to-slot
    mapping. Fully robust with no resizing needed. *)

module Make (R : Smr_runtime.Runtime_intf.S) =
  Engine_single.Make
    (R)
    (struct
      let scheme_name = "Hyaline-1S"
      let reader = Engine_single.Eras
    end)
