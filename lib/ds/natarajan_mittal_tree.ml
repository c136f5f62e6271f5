(** Natarajan & Mittal's lock-free external binary search tree (PPoPP'14).

    Internal nodes route; leaves store keys. Each child edge carries two
    bits (packed into pointers in the original, a record here): [flag]
    marks the edge to a leaf being deleted, [tag] immobilizes the sibling
    edge during cleanup. Deletion is two-phase: {i injection} flags the
    parent→leaf edge, then {i cleanup} tags the sibling edge and swings the
    ancestor's edge to the sibling, unlinking parent and leaf in one CAS;
    the winning CAS retires both. Operations that fail on a flagged or
    tagged edge help complete the pending cleanup, which gives
    lock-freedom.

    Hazard slots: 0 ancestor, 1 successor, 2 parent, 3 leaf/next —
    transfers between roles re-publish an already-protected node through
    [S.transfer], which is safe by the standard HP transfer rule and costs
    what each scheme decides (nothing for the Hyaline engines).

    A seek allocates nothing per level it descends (DESIGN.md §15
    "Box-free traversals" and "Closure-free hot paths"): edges hold bare
    nodes, every [protect] of the walk shares one {!Ds_intf.Reader}, and
    the descent, the sibling tagging and removal's two phases are
    module-level functions, so a seek allocates only its reader and its
    {!type:seek_record}. *)

module Make (S : Smr.Smr_intf.SMR) = struct
  let ds_name = "nm-tree"

  module S = S
  module A = S.R.Atomic
  module Reader = Ds_intf.Reader (A)

  (* Sentinel keys: all real keys are < inf1 < inf2. *)
  let inf1 = max_int - 1
  let inf2 = max_int

  type pl = Leaf of int | Internal of internal
  and internal = { ikey : int; left : edge A.t; right : edge A.t }
  and edge = { tgt : pl S.node; flag : bool; tag : bool }

  type t = { smr : pl S.t; root : internal  (* node R; never retired *) }

  type guard = pl S.guard

  type seek_record = {
    ancestor : internal;  (* payload of the ancestor node *)
    anc_field : edge A.t;  (* ancestor's child edge toward successor *)
    successor : pl S.node;
    parent : pl S.node;
    par : internal;  (* payload of parent *)
    leaf : pl S.node;
    leaf_key : int;
    leaf_edge : edge;  (* value of parent's edge to leaf when read *)
  }

  let key_of n = match n with Leaf k -> k | Internal i -> i.ikey

  let clean_edge tgt = { tgt; flag = false; tag = false }

  let create ?buckets:_ cfg =
    let smr = S.create cfg in
    (* Leaves are a bare key (two words with the tag); internals add two
       edge words — distinct size classes in the slab arena. *)
    let leaf k = S.alloc ~bytes:16 smr (Leaf k) in
    let s_node =
      S.alloc ~bytes:32 smr
        (Internal
           {
             ikey = inf1;
             left = A.make (clean_edge (leaf inf1));
             right = A.make (clean_edge (leaf inf2));
           })
    in
    let root =
      {
        ikey = inf2;
        left = A.make (clean_edge s_node);
        right = A.make (clean_edge (leaf inf2));
      }
    in
    { smr; root }

  let child i key = if key < i.ikey then i.left else i.right

  (* Protect the edge in [field] through the walk's reader: repointing
     it allocates nothing per hop. *)
  let read_edge t g r ~idx field =
    r.Reader.src <- field;
    S.protect t.smr g ~idx ~read:r.Reader.read ~target:(fun e -> e.tgt)

  (* One level of [seek]'s descent: the edge to [leaf_edge.tgt] was read
     from [par_field], and an untagged one moves the ancestor and
     successor roles down. *)
  let rec descend t g key r ~ancestor ~anc_field ~successor ~parent ~par
      ~par_field ~leaf_edge =
    let leaf = leaf_edge.tgt in
    match S.data leaf with
    | Leaf k ->
        {
          ancestor;
          anc_field;
          successor;
          parent;
          par;
          leaf;
          leaf_key = k;
          leaf_edge;
        }
    | Internal i ->
        let ancestor, anc_field, successor =
          if not leaf_edge.tag then begin
            S.transfer t.smr g ~idx:0 parent;
            S.transfer t.smr g ~idx:1 leaf;
            (par, par_field, leaf)
          end
          else (ancestor, anc_field, successor)
        in
        S.transfer t.smr g ~idx:2 leaf;
        let next_field = child i key in
        let next_edge = read_edge t g r ~idx:3 next_field in
        descend t g key r ~ancestor ~anc_field ~successor ~parent:leaf ~par:i
          ~par_field:next_field ~leaf_edge:next_edge

  let seek t g key =
    let r = Reader.make t.root.left in
    (* The root node R is embedded in [t] and never retired; its S child is
       read under slot 1 and doubles as the initial successor/parent. *)
    let s_edge = read_edge t g r ~idx:1 t.root.left in
    let s_node = s_edge.tgt in
    S.transfer t.smr g ~idx:2 s_node;
    let s_internal =
      match S.data s_node with
      | Internal i -> i
      | Leaf _ -> invalid_arg "nm-tree: S node must be internal"
    in
    let first_field = child s_internal key in
    let first_edge = read_edge t g r ~idx:3 first_field in
    descend t g key r ~ancestor:t.root ~anc_field:t.root.left
      ~successor:s_node ~parent:s_node ~par:s_internal ~par_field:first_field
      ~leaf_edge:first_edge

  (* Tag the sibling edge so the parent cannot change under a cleanup;
     returns the edge as tagged. *)
  let rec tag_sibling sibling_field =
    let sv = A.get sibling_field in
    if sv.tag then sv
    else
      let tagged = { sv with tag = true } in
      if A.compare_and_set sibling_field sv tagged then tagged
      else tag_sibling sibling_field

  (* Cleanup (Fig. 5 of the original): the flagged child of [parent] is the
     leaf being removed; tag the sibling edge, then swing the ancestor edge
     to the sibling, preserving the sibling's flag. Returns true iff this
     call's CAS unlinked — the winner retires parent and leaf. *)
  let cleanup t g key r =
    let child_field = child r.par key in
    let sibling_field =
      if child_field == r.par.left then r.par.right else r.par.left
    in
    let child_edge = A.get child_field in
    let sibling_field =
      if child_edge.flag then sibling_field else child_field
    in
    let flagged_field =
      if child_edge.flag then child_field
      else if sibling_field == r.par.left then r.par.right
      else r.par.left
    in
    let sv = tag_sibling sibling_field in
    let av = A.get r.anc_field in
    if av.tgt == r.successor && not av.tag then
      if
        A.compare_and_set r.anc_field av
          { tgt = sv.tgt; flag = sv.flag; tag = false }
      then begin
        (* Unlinked: retire the parent and the flagged leaf. *)
        let removed_leaf =
          if child_edge.flag then child_edge.tgt
          else (A.get flagged_field).tgt
        in
        S.retire t.smr g r.parent;
        S.retire t.smr g removed_leaf;
        true
      end
      else false
    else false

  let contains_with t g key =
    let r = seek t g key in
    r.leaf_key = key

  let rec insert_with t g key =
    let r = seek t g key in
    if r.leaf_key = key then false
    else begin
      let parent_field = child r.par key in
      let new_leaf = S.alloc ~bytes:16 t.smr (Leaf key) in
      let old_leaf = r.leaf in
      let ikey = max key r.leaf_key in
      let l, rgt =
        if key < r.leaf_key then (new_leaf, old_leaf) else (old_leaf, new_leaf)
      in
      let internal =
        S.alloc ~bytes:32 t.smr
          (Internal
             {
               ikey;
               left = A.make (clean_edge l);
               right = A.make (clean_edge rgt);
             })
      in
      let expected = r.leaf_edge in
      if
        (not expected.flag) && (not expected.tag)
        && A.compare_and_set parent_field expected (clean_edge internal)
      then true
      else begin
        (* Failed on a flagged/tagged edge to our leaf: help the pending
           deletion, then retry. *)
        let e = A.get parent_field in
        if e.tgt == old_leaf && (e.flag || e.tag) then
          ignore (cleanup t g key r);
        insert_with t g key
      end
    end

  (* Removal's two phases: [injection] flags the edge to the key's leaf,
     [cleanup_phase] completes the unlink, ours or by helping. *)
  let rec injection t g key =
    let r = seek t g key in
    if r.leaf_key <> key then false
    else begin
      let parent_field = child r.par key in
      let expected = r.leaf_edge in
      if
        (not expected.flag) && (not expected.tag)
        && A.compare_and_set parent_field expected
             { tgt = r.leaf; flag = true; tag = false }
      then begin
        (* Injected; now complete the cleanup, ours or by helping. *)
        if cleanup t g key r then true else cleanup_phase t g key r.leaf
      end
      else begin
        let e = A.get parent_field in
        if e.tgt == r.leaf && (e.flag || e.tag) then
          ignore (cleanup t g key r);
        injection t g key
      end
    end

  and cleanup_phase t g key target_leaf =
    let r = seek t g key in
    if not (r.leaf == target_leaf) then true
      (* someone else finished removing our leaf *)
    else if cleanup t g key r then true
    else cleanup_phase t g key target_leaf

  let remove_with = injection

  include Ds_intf.Bracket (struct
    module S = S

    type nonrec pl = pl
    type nonrec t = t

    let smr t = t.smr
    let insert_with = insert_with
    let remove_with = remove_with
    let contains_with = contains_with
  end)
end
