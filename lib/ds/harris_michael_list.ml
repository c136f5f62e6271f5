(** Harris–Michael sorted lock-free linked list (Harris'01 as amended by
    Michael'04 for SMR compatibility): logical deletion marks a node's
    [next] link; traversals help unlink marked nodes and the successful
    unlinker retires the node — the timely-retire discipline every robust
    scheme requires (§2.4).

    Hazard indices rotate modulo 3 along the traversal, so at any moment the
    previous, current and next nodes are protected — Michael's classic
    three-hazard scheme.

    A traversal allocates nothing per node it visits (DESIGN.md §15
    "Box-free traversals"): links hold bare nodes with
    {!Smr.Smr_intf.nil} at the end of the list, each [find] builds one
    {!Ds_intf.Reader} whose [read] thunk every [protect] of the walk
    shares, and [find] returns its result in one {!type:found} record. *)

module Make (S : Smr.Smr_intf.SMR) = struct
  let ds_name = "hm-list"

  module S = S
  module A = S.R.Atomic
  module Reader = Ds_intf.Reader (A)

  type pl = { key : int; next : link A.t }
  and link = { tgt : pl S.node; marked : bool  (* [tgt] nil: list end *) }

  type t = { smr : pl S.t; head : link A.t }
  type guard = pl S.guard

  let nil () : pl S.node = Smr.Smr_intf.nil ()
  let target l = l.tgt

  (* An empty list's link, shared by every head: CASes install only fresh
     links, so a shared one is never installed twice. *)
  let empty = { tgt = nil (); marked = false }

  let create ?buckets:_ cfg = { smr = S.create cfg; head = A.make empty }

  (* Where [find] stopped: the insertion point in [prev] (the link cell)
     and [prev_link] (its value when read), and the first node with key >=
     the key sought in [curr] — nil if none — with its payload's key, its
     next cell ([curr_cell]) and that cell's value ([curr_link]). One
     fresh block per [find]: filling a reused record would cost a write
     barrier per pointer field, more than the allocation. *)
  type found = {
    prev : link A.t;
    prev_link : link;
    curr : pl S.node;
    curr_key : int;
    curr_cell : link A.t;
    curr_link : link;
  }

  exception Restart

  (* Walks from [head], unlinking marked nodes on the way (the winning CAS
     retires). A hop allocates nothing: it repoints the reader. *)
  let rec find smr g head key =
    let r = Reader.make head in
    let rec advance depth prev prev_link =
      let cn = prev_link.tgt in
      if Smr.Smr_intf.is_nil cn then
        {
          prev;
          prev_link;
          curr = cn;
          curr_key = 0;
          curr_cell = prev;
          curr_link = prev_link;
        }
      else
        let cpl = S.data cn in
        r.Reader.src <- cpl.next;
        let next =
          S.protect smr g ~idx:((depth + 1) mod 3) ~read:r.read ~target
        in
        if next.marked then begin
          let desired = { tgt = next.tgt; marked = false } in
          if A.compare_and_set prev prev_link desired then begin
            S.retire smr g cn;
            advance depth prev desired
          end
          else raise Restart
        end
        else if cpl.key >= key then
          {
            prev;
            prev_link;
            curr = cn;
            curr_key = cpl.key;
            curr_cell = cpl.next;
            curr_link = next;
          }
        else advance (depth + 1) cpl.next next
    in
    match
      advance 0 head (S.protect smr g ~idx:0 ~read:r.read ~target)
    with
    | f -> f
    | exception Restart -> find smr g head key

  let has f key = (not (Smr.Smr_intf.is_nil f.curr)) && f.curr_key = key

  (* The operations on the list rooted at [head], with the scheme state
     [smr] — the hash map runs them on its buckets. *)
  let contains_at smr g head key = has (find smr g head key) key

  let rec insert_attempt smr g head key reuse =
    let f = find smr g head key in
    if has f key then false
    else begin
      let fresh_link = { tgt = f.curr; marked = false } in
      let node =
        if Smr.Smr_intf.is_nil reuse then
          S.alloc smr { key; next = A.make fresh_link }
        else begin
          A.set (S.data reuse).next fresh_link;
          reuse
        end
      in
      if A.compare_and_set f.prev f.prev_link { tgt = node; marked = false }
      then true
      else insert_attempt smr g head key node
    end

  let insert_at smr g head key = insert_attempt smr g head key (nil ())

  let rec remove_at smr g head key =
    let f = find smr g head key in
    if not (has f key) then false
    else
      let next = f.curr_link in
      if
        not
          (A.compare_and_set f.curr_cell next
             { tgt = next.tgt; marked = true })
      then remove_at smr g head key
      else begin
        (* Physically unlink; on failure a later find cleans up and
           retires instead of us. *)
        if
          A.compare_and_set f.prev f.prev_link
            { tgt = next.tgt; marked = false }
        then S.retire smr g f.curr
        else ignore (find smr g head key);
        true
      end

  let contains_with t g key = contains_at t.smr g t.head key
  let insert_with t g key = insert_at t.smr g t.head key
  let remove_with t g key = remove_at t.smr g t.head key

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
