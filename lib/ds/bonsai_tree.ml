(** Bonsai tree — a self-balancing lock-free binary tree in the style of
    Clements et al.'s RCU balanced trees [13], as realised in the IBR
    benchmark framework: a persistent weight-balanced tree whose updates
    copy the affected path (plus rotation participants), publish with one
    CAS on the root, and retire every replaced node. Readers traverse an
    immutable snapshot.

    This is the reclamation-heaviest benchmark (every update retires a
    whole path) and, as in the paper, it is not meaningfully protectable by
    per-pointer hazards — HP/HE are excluded from the Bonsai figures
    (§6, Fig. 8b). *)

module Make (S : Smr.Smr_intf.SMR) = struct
  let ds_name = "bonsai"

  module S = S
  module A = S.R.Atomic

  type pl = {
    key : int;
    left : pl S.node option;
    right : pl S.node option;
    size : int;
  }

  type t = { smr : pl S.t; root : pl S.node option A.t }

  (* A walk's [protect] read thunk over plain nodes, not cells: [deref]
     repoints it at each level, so a level allocates nothing. *)
  module Holder = Ds_intf.Reader (struct
    type 'a t = 'a

    let get v = v
  end)

  type guard = pl S.guard

  let create ?buckets:_ cfg = { smr = S.create cfg; root = A.make None }
  let size = function None -> 0 | Some n -> (S.data n).size

  (* Era-touching dereference: the child links are immutable, so the read
     thunk returns the cached node; era-based schemes still advance their
     reservation, which is all the protection a snapshot traversal needs. *)
  let deref t g h node =
    h.Holder.src <- node;
    ignore (S.protect t.smr g ~idx:0 ~read:h.Holder.read ~target:Fun.id);
    S.data node

  let mk t key l r =
    (* key + two child pointers + cached size + header: five words. *)
    S.alloc ~bytes:40 t.smr
      { key; left = l; right = r; size = 1 + size l + size r }

  (* Weight-balanced (BB[w]) rebalancing, Adams-style with delta = 4 and
     ratio = 2. [retired] accumulates every pre-existing node whose fields
     were deconstructed — those are replaced in the new version and must be
     retired once the root CAS publishes it. *)
  let delta = 4
  let ratio = 2

  let balance t g h retired key l r =
    let deconstruct n =
      retired := n :: !retired;
      deref t g h n
    in
    let ln = size l and rn = size r in
    if ln + rn <= 1 then mk t key l r
    else if rn > (delta * ln) + 1 then begin
      (* left rotation around r *)
      let rv =
        match r with Some n -> deconstruct n | None -> assert false
      in
      if size rv.left < ratio * size rv.right then
        (* single *)
        mk t rv.key (Some (mk t key l rv.left)) rv.right
      else begin
        (* double *)
        let rlv =
          match rv.left with Some n -> deconstruct n | None -> assert false
        in
        mk t rlv.key
          (Some (mk t key l rlv.left))
          (Some (mk t rv.key rlv.right rv.right))
      end
    end
    else if ln > (delta * rn) + 1 then begin
      let lv =
        match l with Some n -> deconstruct n | None -> assert false
      in
      if size lv.right < ratio * size lv.left then
        mk t lv.key lv.left (Some (mk t key lv.right r))
      else begin
        let lrv =
          match lv.right with Some n -> deconstruct n | None -> assert false
        in
        mk t lrv.key
          (Some (mk t lv.key lv.left lrv.left))
          (Some (mk t key lrv.right r))
      end
    end
    else mk t key l r

  (* Pure insertion into the snapshot; returns None if the key is present. *)
  let insert_path t g h retired key root =
    let rec go node =
      match node with
      | None -> Some (mk t key None None)
      | Some n ->
          let v = deref t g h n in
          if key = v.key then None
          else begin
            retired := n :: !retired;
            if key < v.key then
              Option.map
                (fun l -> balance t g h retired v.key (Some l) v.right)
                (go v.left)
            else
              Option.map
                (fun r -> balance t g h retired v.key v.left (Some r))
                (go v.right)
          end
    in
    go root

  (* Remove the minimum of a non-empty subtree; returns (min_payload, rest). *)
  let rec take_min t g h retired n =
    let v = deref t g h n in
    retired := n :: !retired;
    match v.left with
    | None -> (v, v.right)
    | Some l ->
        let m, rest = take_min t g h retired l in
        (m, Some (balance t g h retired v.key rest v.right))

  (* Returns [Some new_subtree] when the key was removed, [None] if it was
     absent (path nodes are only marked for retirement on success). *)
  let remove_path t g h retired key root =
    let rec go node =
      match node with
      | None -> None
      | Some n -> (
          let v = deref t g h n in
          if key = v.key then begin
            retired := n :: !retired;
            match (v.left, v.right) with
            | None, r -> Some r
            | l, None -> Some l
            | l, Some r ->
                let m, rest = take_min t g h retired r in
                Some (Some (balance t g h retired m.key l rest))
          end
          else if key < v.key then
            match go v.left with
            | None -> None
            | Some l' ->
                retired := n :: !retired;
                Some (Some (balance t g h retired v.key l' v.right))
          else
            match go v.right with
            | None -> None
            | Some r' ->
                retired := n :: !retired;
                Some (Some (balance t g h retired v.key v.left r')))
    in
    go root

  let contains_with t g key =
    let h = Holder.make (Smr.Smr_intf.nil ()) in
    let rec go node =
      match node with
      | None -> false
      | Some n ->
          let v = deref t g h n in
          if key = v.key then true
          else if key < v.key then go v.left
          else go v.right
    in
    go
      (S.protect t.smr g ~idx:0
         ~read:(fun () -> A.get t.root)
         ~target:Smr.Smr_intf.of_option)

  let update_root t g compute =
    let h = Holder.make (Smr.Smr_intf.nil ()) in
    let rec attempt () =
      let snapshot =
        S.protect t.smr g ~idx:0
          ~read:(fun () -> A.get t.root)
          ~target:Smr.Smr_intf.of_option
      in
      let retired = ref [] in
      match compute h retired snapshot with
      | None -> false (* no-op: key present (insert) or absent (remove) *)
      | Some fresh ->
          if A.compare_and_set t.root snapshot fresh then begin
            List.iter (S.retire t.smr g) !retired;
            true
          end
          else attempt ()
          (* losing nodes were never published: dropped, not retired *)
    in
    attempt ()

  let insert_with t g key =
    update_root t g (fun h retired snap ->
        Option.map (fun n -> Some n) (insert_path t g h retired key snap))

  let remove_with t g key =
    update_root t g (fun h retired snap -> remove_path t g h retired key snap)

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
