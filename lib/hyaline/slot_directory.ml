(** Adaptive slot directory (§4.3, Fig. 6).

    A small fixed array of pointers to slot blocks. Initially only entry 0
    (the first [kmin] slots) exists; each growth step doubles the total slot
    count [k] by installing one more block with CAS, so a race to grow
    allocates at most one discarded block. Slot [i] lives in entry
    [s = log2(i / kmin) + 1] (with [log2 0 = -1], i.e. entry 0), at offset
    [i - 2^(s-1)·kmin]; the paper stores pre-offset pointers instead, which
    is the same arithmetic. [kmin] must be a power of two, so [k] stays one
    and Hyaline's [Adjs] assumption holds through every resize.

    Charged reads. Only state that can change after [create] is read
    through [R.Atomic]: entry 0 is written once, before any thread can see
    the directory, so the first [kmin] slots come from the plain [first]
    field, like any immutable word published with its node. Blocks
    installed by [grow] (entries 1 and up) keep their charged read, and so
    does the [k] cell of an [adaptive] directory. A non-adaptive directory
    never grows, so its [k] is the constant [kmin] and the directory
    charges nothing at all: this is the static [Heads[k]] of Fig. 3. *)

module Make (R : Smr_runtime.Runtime_intf.S) = struct
  type 'a t = {
    kmin : int;
    adaptive : bool;
    first : 'a array;  (* entry 0's block, never replaced *)
    entries : 'a array option R.Atomic.t array;
    k : int R.Atomic.t;
    make_slot : int -> 'a;
  }

  let max_entries = Sys.int_size - 1

  let create ~kmin ~adaptive ~make_slot =
    if not (Batch.is_power_of_two kmin) then
      invalid_arg "Slot_directory.create: kmin must be a power of two";
    let entries =
      Array.init (max_entries - Batch.log2 kmin) (fun _ -> R.Atomic.make None)
    in
    let first = Array.init kmin make_slot in
    (* [get] reads entry 0's block from [first]; the cell is still written
       so that [create] charges what Fig. 6's create does. *)
    R.Atomic.set entries.(0) (Some first);
    {
      kmin;
      adaptive;
      first;
      entries;
      k = R.Atomic.make kmin;
      make_slot;
    }

  let k t = if t.adaptive then R.Atomic.get t.k else t.kmin

  (* Entry index [s] and offset for slot [i], computed in place rather
     than returned as a pair: [get] runs on every [enter] and per slot on
     every sealed batch, and without flambda a returned tuple is
     allocated. *)
  let get t i =
    if i < t.kmin then t.first.(i)
    else
      let s = Batch.log2 (i / t.kmin) + 1 in
      match R.Atomic.get t.entries.(s) with
      | Some block -> block.(i - ((1 lsl (s - 1)) * t.kmin))
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
