(** Lock-free skip list (Fraser / Herlihy–Shavit style), an additional SMR
    consumer beyond the paper's benchmark quartet: towers of marked
    next-links, logical deletion by marking every level top-down, physical
    unlinking by helping searches. The deleter that wins the level-0 mark
    then {i purges} the tower — walking each level past equal keys until
    the node is provably unlinked everywhere — and only then retires it,
    exactly once. Searches never adopt a marked link as a predecessor
    (that CAS would install an unmarked link into a logically deleted
    node, resurrecting it — a double-retire the lifecycle auditor caught
    during development).

    Hazard indices rotate modulo 3 along the search path; descending a
    level keeps the predecessor protected because the predecessor node is
    re-read (and so re-protected) as the walk continues below it.

    A search allocates nothing per node it visits (DESIGN.md §15
    "Box-free traversals"): links hold bare nodes, the head is a payload
    record ([head_tower]) so every predecessor is a [pl], and every
    [protect] of one walk shares one read thunk. Nor does it build a
    closure: the walks are module-level functions (§15 "Closure-free hot
    paths"). *)

module Make (S : Smr.Smr_intf.SMR) = struct
  let ds_name = "skiplist"

  module S = S
  module A = S.R.Atomic
  module Reader = Ds_intf.Reader (A)

  let max_level = 12

  type pl = { key : int; height : int; next : link A.t array }
  and link = { tgt : pl S.node; marked : bool  (* [tgt] nil: level end *) }

  type t = {
    smr : pl S.t;
    head : link A.t array;
    head_tower : pl;
        (* the head as a predecessor (its [next] is [head]); never a node *)
    rng_state : int Stdlib.Atomic.t;
  }

  type guard = pl S.guard

  let nil () : pl S.node = Smr.Smr_intf.nil ()
  let target l = l.tgt

  (* An empty level's link, shared by every head cell: CASes install only
     fresh links, so a shared one is never installed twice. *)
  let empty = { tgt = nil (); marked = false }

  let create ?buckets:_ cfg =
    let head = Array.init max_level (fun _ -> A.make empty) in
    {
      smr = S.create cfg;
      head;
      head_tower = { key = min_int; height = max_level; next = head };
      rng_state = Stdlib.Atomic.make 0x9E3779B9;
    }

  (* Geometric tower height, p = 1/2, from a shared xorshift; plain
     [Stdlib.Atomic] — bookkeeping, not algorithm. *)
  let random_height t =
    let x = Stdlib.Atomic.fetch_and_add t.rng_state 0x6D2B79F5 in
    let x = x lxor (x lsr 15) in
    let x = x * 0x2545F491 in
    let x = (x lxor (x lsr 13)) land max_int in
    let rec count h bits =
      if h >= max_level || bits land 1 = 0 then h else count (h + 1) (bits lsr 1)
    in
    count 1 x

  exception Restart

  (* The [d]-th protect of a walk: hazard indices rotate modulo 3 along
     it, and every call shares the walk's reader [r], so a hop allocates
     nothing. *)
  let protect_at t g r d source =
    r.Reader.src <- source;
    S.protect t.smr g ~idx:(d mod 3) ~read:r.Reader.read ~target

  type search = {
    preds : pl array;  (* per level: insertion-point predecessor *)
    pred_links : link array;  (* value read from the predecessor's cell *)
    found : pl S.node;  (* level-0 node with key >= target; nil if none *)
  }

  (* One search's walk along [level] and its descent to the next one.
     [d] counts the walk's protects so far. *)
  let rec walk t g key r preds pred_links level pred pred_link d =
    let cn = pred_link.tgt in
    if Smr.Smr_intf.is_nil cn then
      descend t g key r preds pred_links level pred pred_link cn d
    else begin
      let cpl = S.data cn in
      let next = protect_at t g r (d + 1) cpl.next.(level) in
      if next.marked then begin
        let desired = { tgt = next.tgt; marked = false } in
        if A.compare_and_set pred.next.(level) pred_link desired then
          walk t g key r preds pred_links level pred desired (d + 1)
        else raise Restart
      end
      else if cpl.key < key then
        walk t g key r preds pred_links level cpl next (d + 1)
      else descend t g key r preds pred_links level pred pred_link cn (d + 1)
    end

  and descend t g key r preds pred_links level pred pred_link succ d =
    preds.(level) <- pred;
    pred_links.(level) <- pred_link;
    if level = 0 then { preds; pred_links; found = succ }
    else begin
      let link = protect_at t g r (d + 1) pred.next.(level - 1) in
      (* A marked link here means the predecessor itself was deleted
         under us; adopting it would let a later unlink CAS install an
         unmarked link into a dead node — resurrecting it. Restart. *)
      if link.marked then raise Restart;
      walk t g key r preds pred_links (level - 1) pred link (d + 1)
    end

  (* Search all levels; unlink marked nodes on the way (retiring at level
     0); restart on CAS interference. *)
  let rec find t g key =
    let preds = Array.make max_level t.head_tower in
    let pred_links = Array.make max_level empty in
    let r = Reader.make t.head.(0) in
    try
      let top = max_level - 1 in
      let first = protect_at t g r 1 t.head.(top) in
      walk t g key r preds pred_links top t.head_tower first 1
    with Restart -> find t g key

  let has s key =
    (not (Smr.Smr_intf.is_nil s.found)) && (S.data s.found).key = key

  let contains_with t g key = has (find t g key) key

  (* Link [node]'s upper levels from [lvl] up; on interference, re-find
     and retry the level (or give up linking if the node got marked
     meanwhile — an unlinked upper level is only a performance matter,
     but we keep helping until each level is linked or the node dies). *)
  let rec link_level t g key node pl lvl =
    if lvl < pl.height then begin
      if (A.get pl.next.(0)).marked then ()
      else begin
        let s = find t g key in
        if s.found != node then () (* node already removed *)
        else begin
          let expected = s.pred_links.(lvl) in
          if expected.tgt == node then
            (* already linked at this level by a previous attempt *)
            link_level t g key node pl (lvl + 1)
          else begin
            let fwd = A.get pl.next.(lvl) in
            if fwd.marked then ()
            else if
              (* Point our forward link at the current successor; a CAS
                 because a concurrent deleter may be marking. *)
              fwd.tgt == expected.tgt
              || A.compare_and_set pl.next.(lvl) fwd
                   { tgt = expected.tgt; marked = false }
            then begin
              if
                A.compare_and_set s.preds.(lvl).next.(lvl) expected
                  { tgt = node; marked = false }
              then link_level t g key node pl (lvl + 1)
              else link_level t g key node pl lvl
            end
            else link_level t g key node pl lvl
          end
        end
      end
    end

  let rec insert_with t g key =
    let s = find t g key in
    if has s key then false
    else begin
      let height = random_height t in
      let succ0 = s.found in
      let pl =
        {
          key;
          height;
          next =
            Array.init height (fun lvl ->
                let below =
                  if lvl = 0 then succ0 else s.pred_links.(lvl).tgt
                in
                A.make { tgt = below; marked = false });
        }
      in
      (* Towers are variable-size: charge the key, height and one link
         word per level instead of the flat per-node default. *)
      let node = S.alloc ~bytes:(8 * (2 + height)) t.smr pl in
      (* Link level 0 first — the linearization point. *)
      if
        not
          (A.compare_and_set s.preds.(0).next.(0) s.pred_links.(0)
             { tgt = node; marked = false })
      then insert_with t g key
      else begin
        link_level t g key node pl 1;
        true
      end
    end

  (* Mark [pl]'s levels from [lvl] down to 1. *)
  let rec mark_upper pl lvl =
    if lvl >= 1 then begin
      let l = A.get pl.next.(lvl) in
      if l.marked then mark_upper pl (lvl - 1)
      else if A.compare_and_set pl.next.(lvl) l { l with marked = true } then
        mark_upper pl (lvl - 1)
      else mark_upper pl lvl
    end

  (* Mark level 0: true iff this call owns the logical deletion. *)
  let rec mark_bottom pl =
    let l = A.get pl.next.(0) in
    if l.marked then false (* someone else won the deletion *)
    else if A.compare_and_set pl.next.(0) l { l with marked = true } then true
    else mark_bottom pl

  (* Purge [n] (key [key]) from level [lvl] of a walk that has made [d]
     protects: scan from [pred], past equal keys, until [n] is unlinked
     here or provably not linked; returns the walk's protect count.

     Invariant: [pred_link] is unmarked (we only advance over unmarked
     links and help-unlink marked successors), so the unlink CAS never
     resurrects a deleted predecessor. *)
  let rec scan t g key n r lvl pred pred_link d =
    let cn = pred_link.tgt in
    if Smr.Smr_intf.is_nil cn then d
    else begin
      let cpl = S.data cn in
      let link = protect_at t g r (d + 1) cpl.next.(lvl) in
      if link.marked then begin
        (* [cn] is deleted at this level (possibly [n]): unlink it here. *)
        let desired = { tgt = link.tgt; marked = false } in
        if A.compare_and_set pred.next.(lvl) pred_link desired then begin
          if cn == n then d + 1 (* our target: done at this level *)
          else scan t g key n r lvl pred desired (d + 1)
        end
        else rescan t g key n r lvl (d + 1)
      end
      else if cn == n then rescan t g key n r lvl (d + 1)
        (* mark not visible yet *)
      else if cpl.key <= key then scan t g key n r lvl cpl link (d + 1)
      else d + 1 (* walked past: not linked at this level *)
    end

  and rescan t g key n r lvl d =
    let first = protect_at t g r (d + 1) t.head.(lvl) in
    scan t g key n r lvl t.head_tower first (d + 1)

  (* Purge levels [lvl] down to 0, one walk throughout. *)
  let rec purge t g key n r lvl d =
    let d = rescan t g key n r lvl d in
    if lvl > 0 then purge t g key n r (lvl - 1) d

  let rec remove_with t g key =
    let s = find t g key in
    if has s key then begin
      let n = s.found in
      let pl = S.data n in
      (* Mark from the top level down; only the thread that marks level 0
         owns the logical deletion. *)
      mark_upper pl (pl.height - 1);
      if mark_bottom pl then begin
        (* Purge: physically unlink [n] from every level, scanning past
           equal keys so a concurrent same-key insertion cannot hide the
           dying tower (the classic duplicate-key hazard); only then is
           the node unreachable and retirable — by us, exactly once. *)
        purge t g key n (Reader.make t.head.(0)) (pl.height - 1) 0;
        S.retire t.smr g n;
        true
      end
      else remove_with t g key
    end
    else false

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
