(** See registry.mli — the canonical scheme x structure tables, generic
    over the runtime. *)

module type SMR = Smr.Smr_intf.SMR
module type CONC_SET = Smr_ds.Ds_intf.CONC_SET

type arch = X86 | Ppc

let arch_name = function X86 -> "x86" | Ppc -> "ppc"

type structure =
  | List_set
  | Hashmap
  | Nm_tree
  | Bonsai
  | Skiplist
  | Stack
  | Queue

let structures = [ List_set; Hashmap; Nm_tree; Bonsai; Skiplist; Stack; Queue ]
let paper_structures = [ List_set; Bonsai; Hashmap; Nm_tree ]

let structure_name = function
  | List_set -> "list"
  | Hashmap -> "hashmap"
  | Nm_tree -> "nm-tree"
  | Bonsai -> "bonsai"
  | Skiplist -> "skiplist"
  | Stack -> "stack"
  | Queue -> "queue"

let structure_of_name n =
  List.find_opt (fun s -> structure_name s = n) structures

let ds_name = function
  | List_set -> "Harris & Michael list"
  | Hashmap -> "Michael hash map"
  | Nm_tree -> "Natarajan & Mittal tree"
  | Bonsai -> "Bonsai tree"
  | Skiplist -> "skip list"
  | Stack -> "Treiber stack"
  | Queue -> "Michael & Scott queue"

(* Bonsai excludes HP and HE: per-pointer hazards cannot protect a
   snapshot traversal (§6, Fig. 8b). *)
let supported structure (scheme_name : string) =
  match structure with
  | Bonsai -> scheme_name <> "HP" && scheme_name <> "HE"
  | _ -> true

let baseline_names = [ "Leaky"; "Epoch"; "IBR"; "HE"; "HP" ]
let hyaline_names = [ "Hyaline"; "Hyaline-1"; "Hyaline-S"; "Hyaline-1S" ]
let crystalline_names = [ "Crystalline-L"; "Crystalline-W" ]
let llsc_names = [ "Hyaline/llsc"; "Hyaline-S/llsc" ]
let scheme_names = baseline_names @ hyaline_names

(* The benchmark-report scheme set: the paper-figure nine plus the
   Crystalline follow-ups. Figure sweeps (fig8/fig9/...) keep the
   paper's own scheme list; the bench/micro reports cover the lineage. *)
let bench_scheme_names = scheme_names @ crystalline_names

let every_scheme_name =
  baseline_names @ hyaline_names @ crystalline_names @ llsc_names

module type S = sig
  val runtime_name : string
  val all_schemes : arch -> (string * (module SMR)) list
  val every_scheme : (string * (module SMR)) list
  val scheme_of_name : ?arch:arch -> string -> (module SMR) option
  val schemes_for : structure -> arch -> (string * (module SMR)) list
  val make_set : structure -> (module SMR) -> (module CONC_SET)
end

(* Set-view adapters: the stack and queue join the workload/conformance
   grid as integer bags — insert pushes the key, remove pops whatever is
   at the removal end (the key picks nothing), contains peeks. Reclamation
   behaviour (retire on pop/dequeue, protected traversal of the head/top)
   is exactly the structure's own; only the set facade is synthetic. *)

module Stack_set (Scheme : SMR) : CONC_SET = struct
  module Impl = Smr_ds.Treiber_stack.Make (Scheme)

  let ds_name = Impl.ds_name

  module S = Scheme

  type t = int Impl.t
  type guard = int Impl.guard

  let create ?buckets:_ cfg = Impl.create cfg

  let insert_with t g k =
    Impl.push_with t g k;
    true

  let remove_with t g _k = Option.is_some (Impl.pop_with t g)

  let contains_with t g k =
    match Impl.top_with t g with Some v -> v = k | None -> false

  include Smr_ds.Ds_intf.Bracket (struct
    module S = Scheme

    type pl = int Impl.pl
    type nonrec t = t

    let smr (t : t) = t.Impl.smr
    let insert_with = insert_with
    let remove_with = remove_with
    let contains_with = contains_with
  end)
end

module Queue_set (Scheme : SMR) : CONC_SET = struct
  module Impl = Smr_ds.Ms_queue.Make (Scheme)

  let ds_name = Impl.ds_name

  module S = Scheme

  type t = int Impl.t
  type guard = int Impl.guard

  let create ?buckets:_ cfg = Impl.create cfg

  let insert_with t g k =
    Impl.enqueue_with t g k;
    true

  let remove_with t g _k = Option.is_some (Impl.dequeue_with t g)

  let contains_with t g k =
    match Impl.peek_with t g with Some v -> v = k | None -> false

  include Smr_ds.Ds_intf.Bracket (struct
    module S = Scheme

    type pl = int Impl.pl
    type nonrec t = t

    let smr (t : t) = t.Impl.smr
    let insert_with = insert_with
    let remove_with = remove_with
    let contains_with = contains_with
  end)
end

module Make (R : Smr_runtime.Runtime_intf.S) : S = struct
  let runtime_name = R.name

  module Leaky = Smr.Leaky.Make (R)
  module Ebr = Smr.Ebr.Make (R)
  module Hp = Smr.Hp.Make (R)
  module He = Smr.He.Make (R)
  module Ibr = Smr.Ibr.Make (R)
  module Hyaline = Hyaline_core.Hyaline.Make (R)
  module Hyaline_llsc = Hyaline_core.Hyaline.Make_llsc (R)
  module Hyaline1 = Hyaline_core.Hyaline1.Make (R)
  module Hyaline_s = Hyaline_core.Hyaline_s.Make (R)
  module Hyaline_s_llsc = Hyaline_core.Hyaline_s.Make_llsc (R)
  module Hyaline1s = Hyaline_core.Hyaline1s.Make (R)
  module Crystalline_l = Hyaline_core.Crystalline_l.Make (R)
  module Crystalline_w = Hyaline_core.Crystalline_w.Make (R)

  let baselines : (string * (module SMR)) list =
    [
      ("Leaky", (module Leaky));
      ("Epoch", (module Ebr));
      ("IBR", (module Ibr));
      ("HE", (module He));
      ("HP", (module Hp));
    ]

  let hyaline_family arch : (string * (module SMR)) list =
    match arch with
    | X86 ->
        [
          ("Hyaline", (module Hyaline));
          ("Hyaline-1", (module Hyaline1));
          ("Hyaline-S", (module Hyaline_s));
          ("Hyaline-1S", (module Hyaline1s));
        ]
    | Ppc ->
        [
          ("Hyaline", (module Hyaline_llsc));
          ("Hyaline-1", (module Hyaline1));
          ("Hyaline-S", (module Hyaline_s_llsc));
          ("Hyaline-1S", (module Hyaline1s));
        ]

  let crystalline_family : (string * (module SMR)) list =
    [
      ("Crystalline-L", (module Crystalline_l));
      ("Crystalline-W", (module Crystalline_w));
    ]

  let llsc_variants : (string * (module SMR)) list =
    [
      ("Hyaline/llsc", (module Hyaline_llsc));
      ("Hyaline-S/llsc", (module Hyaline_s_llsc));
    ]

  let all_schemes arch = baselines @ hyaline_family arch
  let every_scheme = all_schemes X86 @ crystalline_family @ llsc_variants

  let scheme_of_name ?(arch = X86) name =
    List.assoc_opt name (all_schemes arch @ crystalline_family @ llsc_variants)

  let schemes_for structure arch =
    List.filter (fun (n, _) -> supported structure n) (all_schemes arch)

  let make_set structure (module S : SMR) : (module CONC_SET) =
    match structure with
    | List_set ->
        let module D = Smr_ds.Harris_michael_list.Make (S) in
        (module D)
    | Hashmap ->
        let module D = Smr_ds.Michael_hashmap.Make (S) in
        (module D)
    | Nm_tree ->
        let module D = Smr_ds.Natarajan_mittal_tree.Make (S) in
        (module D)
    | Bonsai ->
        let module D = Smr_ds.Bonsai_tree.Make (S) in
        (module D)
    | Skiplist ->
        let module D = Smr_ds.Skiplist.Make (S) in
        (module D)
    | Stack ->
        let module D = Stack_set (S) in
        (module D)
    | Queue ->
        let module D = Queue_set (S) in
        (module D)
end

module Sim = Make (Smr_runtime.Sim_runtime)
module Native = Make (Smr_runtime.Native_runtime)
