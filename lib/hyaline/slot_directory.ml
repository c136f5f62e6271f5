(** Adaptive slot directory (§4.3, Fig. 6).

    A small fixed array of pointers to slot blocks. Initially only entry 0
    (the first [kmin] slots) exists; each growth step doubles the total slot
    count [k] by installing one more block with CAS, so a race to grow
    allocates at most one discarded block. Slot [i] lives in entry
    [s = log2(i / kmin) + 1] (with [log2 0 = -1], i.e. entry 0), at offset
    [i - 2^(s-1)·kmin]; the paper stores pre-offset pointers instead, which
    is the same arithmetic. [kmin] must be a power of two, so [k] stays one
    and Hyaline's [Adjs] assumption holds through every resize. *)

module Make (R : Smr_runtime.Runtime_intf.S) = struct
  type 'a t = {
    kmin : int;
    log2_kmin : int;
    entries : 'a array option R.Atomic.t array;
    k : int R.Atomic.t;
    make_slot : int -> 'a;
  }

  let max_entries = Sys.int_size - 1

  let create ~kmin ~make_slot =
    if not (Batch.is_power_of_two kmin) then
      invalid_arg "Slot_directory.create: kmin must be a power of two";
    let entries =
      Array.init (max_entries - Batch.log2 kmin) (fun _ -> R.Atomic.make None)
    in
    R.Atomic.set entries.(0) (Some (Array.init kmin make_slot));
    {
      kmin;
      log2_kmin = Batch.log2 kmin;
      entries;
      k = R.Atomic.make kmin;
      make_slot;
    }

  let k t = R.Atomic.get t.k

  (* Entry index [s] and offset for slot [i], computed in place rather
     than returned as a pair: [get] runs on every [enter] and per slot on
     every sealed batch, and without flambda a returned tuple is
     allocated. *)
  let get t i =
    let s = if i < t.kmin then 0 else Batch.log2 (i / t.kmin) + 1 in
    let off = if s = 0 then i else i - ((1 lsl (s - 1)) * t.kmin) in
    match R.Atomic.get t.entries.(s) with
    | Some block -> block.(off)
    | None -> invalid_arg "Slot_directory.get: slot beyond current k"

  (* Double the slot count, if [from] is still the current k. Losing either
     CAS just means a concurrent thread grew the directory for us. *)
  let grow t ~from =
    let s = Batch.log2 (from / t.kmin) + 1 in
    if s < Array.length t.entries then begin
      (match R.Atomic.get t.entries.(s) with
      | Some _ -> ()
      | None ->
          let block = Array.init from (fun j -> t.make_slot (from + j)) in
          ignore (R.Atomic.compare_and_set t.entries.(s) None (Some block)));
      ignore (R.Atomic.compare_and_set t.k from (2 * from))
    end
end
