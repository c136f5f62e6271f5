(** Harris–Michael sorted lock-free linked list (Harris'01 as amended by
    Michael'04 for SMR compatibility): logical deletion marks a node's
    [next] link; traversals help unlink marked nodes and the successful
    unlinker retires the node — the timely-retire discipline every robust
    scheme requires (§2.4).

    Hazard indices rotate modulo 3 along the traversal, so at any moment the
    previous, current and next nodes are protected — Michael's classic
    three-hazard scheme. *)

module Make (S : Smr.Smr_intf.SMR) = struct
  let ds_name = "hm-list"

  module S = S
  module A = S.R.Atomic

  type pl = { key : int; next : link A.t }
  and link = { tgt : pl S.node option; marked : bool }

  type t = { smr : pl S.t; head : link A.t }
  type guard = pl S.guard

  let create ?buckets:_ cfg =
    { smr = S.create cfg; head = A.make { tgt = None; marked = false } }

  exception Restart

  (* Returns [(prev_ref, prev_link, curr)]: the link cell and its current
     value at the insertion point, plus the first node with key >= [key]
     (with its payload and next link) if any. Unlinks marked nodes on the
     way; the winning CAS retires. *)
  let rec find t g key =
    let protect_link ~depth source =
      S.protect t.smr g ~idx:(depth mod 3)
        ~read:(fun () -> A.get source)
        ~target:(fun l -> l.tgt)
    in
    let rec advance depth prev_ref prev_link =
      match prev_link.tgt with
      | None -> (prev_ref, prev_link, None)
      | Some cn ->
          let cpl = S.data cn in
          let next = protect_link ~depth:(depth + 1) cpl.next in
          if next.marked then begin
            let desired = { tgt = next.tgt; marked = false } in
            if A.compare_and_set prev_ref prev_link desired then begin
              S.retire t.smr g cn;
              advance depth prev_ref desired
            end
            else raise Restart
          end
          else if cpl.key >= key then (prev_ref, prev_link, Some (cn, cpl, next))
          else advance (depth + 1) cpl.next next
    in
    match advance 0 t.head (protect_link ~depth:0 t.head) with
    | result -> result
    | exception Restart -> find t g key

  let contains_with t g key =
    match find t g key with
    | _, _, Some (_, cpl, _) -> cpl.key = key
    | _, _, None -> false

  let insert_with t g key =
    let rec attempt reuse =
      let prev_ref, prev_link, curr = find t g key in
      match curr with
      | Some (_, cpl, _) when cpl.key = key -> false
      | Some _ | None ->
          let succ =
            match curr with Some (cn, _, _) -> Some cn | None -> None
          in
          let fresh_link = { tgt = succ; marked = false } in
          let node =
            match reuse with
            | Some n ->
                A.set (S.data n).next fresh_link;
                n
            | None -> S.alloc t.smr { key; next = A.make fresh_link }
          in
          if
            A.compare_and_set prev_ref prev_link
              { tgt = Some node; marked = false }
          then true
          else attempt (Some node)
    in
    attempt None

  let rec remove_with t g key =
    let prev_ref, prev_link, curr = find t g key in
    match curr with
    | Some (cn, cpl, next) when cpl.key = key ->
        if
          not
            (A.compare_and_set cpl.next next
               { tgt = next.tgt; marked = true })
        then remove_with t g key
        else begin
          (* Physically unlink; on failure a later find cleans up and
             retires instead of us. *)
          if
            A.compare_and_set prev_ref prev_link
              { tgt = next.tgt; marked = false }
          then S.retire t.smr g cn
          else ignore (find t g key);
          true
        end
    | Some _ | None -> false

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
