(** Michael's lock-free hash map (Michael'04): a fixed array of
    Harris–Michael list buckets, all sharing one SMR instance so reclamation
    statistics aggregate across the whole map. Operations are very short —
    the benchmark that stresses enter/leave overhead the most (§6). *)

module Make (S : Smr.Smr_intf.SMR) = struct
  let ds_name = "hashmap"

  module S = S
  module L = Harris_michael_list.Make (S)
  module A = S.R.Atomic

  type t = { smr : L.pl S.t; buckets : L.link A.t array; mask : int }
  type guard = L.guard

  let default_buckets = 16384

  let create ?(buckets = default_buckets) cfg =
    if not (Hyaline_core.Batch.is_power_of_two buckets) then
      invalid_arg "Michael_hashmap.create: buckets must be a power of two";
    {
      smr = S.create cfg;
      buckets =
        Array.init buckets (fun _ ->
            A.make { L.tgt = None; marked = false });
      mask = buckets - 1;
    }

  (* Fibonacci multiplicative hash (63-bit), keys are small dense ints. *)
  let bucket t key = ((key * 0x4F1BBCDCBFA53E0B) lsr 33) land t.mask

  (* A bucket viewed as a list sharing the map's SMR state. *)
  let view t key = { L.smr = t.smr; head = t.buckets.(bucket t key) }

  let insert_with t g key = L.insert_with (view t key) g key
  let remove_with t g key = L.remove_with (view t key) g key
  let contains_with t g key = L.contains_with (view t key) g key

  include Ds_intf.Bracket (struct
    module S = S

    type pl = L.pl
    type nonrec t = t

    let smr t = t.smr
    let insert_with = insert_with
    let remove_with = remove_with
    let contains_with = contains_with
  end)
end
