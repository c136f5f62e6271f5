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
    re-read (and so re-protected) as the walk continues below it. *)

module Make (S : Smr.Smr_intf.SMR) = struct
  let ds_name = "skiplist"

  module S = S
  module A = S.R.Atomic

  let max_level = 12

  type pl = { key : int; height : int; next : link A.t array }
  and link = { tgt : pl S.node option; marked : bool }

  (* A predecessor is either the head tower or a real node (whose payload
     we hold through a protected read). *)
  type tower = Head | Tower of pl

  type t = {
    smr : pl S.t;
    head : link A.t array;
    rng_state : int Stdlib.Atomic.t;
  }

  type guard = pl S.guard

  let create ?buckets:_ cfg =
    {
      smr = S.create cfg;
      head =
        Array.init max_level (fun _ -> A.make { tgt = None; marked = false });
      rng_state = Stdlib.Atomic.make 0x9E3779B9;
    }

  let cell t tower level =
    match tower with Head -> t.head.(level) | Tower pl -> pl.next.(level)

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

  type search = {
    preds : tower array;  (* per level: insertion-point predecessor *)
    pred_links : link array;  (* value read from the predecessor's cell *)
    found : pl S.node option;  (* level-0 node with key >= target *)
  }

  (* Search all levels; unlink marked nodes on the way (retiring at level
     0); restart on CAS interference. *)
  let rec find t g key =
    let preds = Array.make max_level Head in
    let pred_links = Array.make max_level { tgt = None; marked = false } in
    let depth = ref 0 in
    let protect_link source =
      incr depth;
      S.protect t.smr g ~idx:(!depth mod 3)
        ~read:(fun () -> A.get source)
        ~target:(fun l -> l.tgt)
    in
    let rec walk level pred pred_link =
      match pred_link.tgt with
      | Some cn -> begin
          let cpl = S.data cn in
          let next = protect_link cpl.next.(level) in
          if next.marked then begin
            let desired = { tgt = next.tgt; marked = false } in
            if A.compare_and_set (cell t pred level) pred_link desired
            then walk level pred desired
            else raise Restart
          end
          else if cpl.key < key then walk level (Tower cpl) next
          else descend level pred pred_link (Some cn)
        end
      | None -> descend level pred pred_link None
    and descend level pred pred_link succ =
      preds.(level) <- pred;
      pred_links.(level) <- pred_link;
      if level = 0 then { preds; pred_links; found = succ }
      else begin
        let link = protect_link (cell t pred (level - 1)) in
        (* A marked link here means the predecessor itself was deleted
           under us; adopting it would let a later unlink CAS install an
           unmarked link into a dead node — resurrecting it. Restart. *)
        if link.marked then raise Restart;
        walk (level - 1) pred link
      end
    in
    try
      let top = max_level - 1 in
      let first = protect_link t.head.(top) in
      walk top Head first
    with Restart -> find t g key

  let contains_with t g key =
    match (find t g key).found with
    | Some n -> (S.data n).key = key
    | None -> false

  let rec insert_with t g key =
    let s = find t g key in
    match s.found with
    | Some n when (S.data n).key = key -> false
    | _ ->
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
            (A.compare_and_set
               (cell t s.preds.(0) 0)
               s.pred_links.(0)
               { tgt = Some node; marked = false })
        then insert_with t g key
        else begin
          (* Link the upper levels; on interference, re-find and retry the
             level (or give up linking if the node got marked meanwhile —
             an unlinked upper level is only a performance matter, but we
             keep helping until each level is linked or the node dies). *)
          let rec link_level lvl =
            if lvl < height then begin
              if (A.get pl.next.(0)).marked then ()
              else begin
                let s = find t g key in
                if not (Ds_intf.same_opt s.found (Some node)) then ()
                  (* node already removed *)
                else begin
                  let expected = s.pred_links.(lvl) in
                  if Ds_intf.same_opt expected.tgt (Some node) then
                    (* already linked at this level by a previous attempt *)
                    link_level (lvl + 1)
                  else begin
                  (* point our level-lvl forward link at the current succ *)
                  let fwd = A.get pl.next.(lvl) in
                  if fwd.marked then ()
                  else if
                    (* Point our forward link at the current successor; a
                       CAS because a concurrent deleter may be marking. *)
                    Ds_intf.same_opt fwd.tgt expected.tgt
                    || A.compare_and_set pl.next.(lvl) fwd
                         { tgt = expected.tgt; marked = false }
                  then begin
                    if
                      A.compare_and_set
                        (cell t s.preds.(lvl) lvl)
                        expected
                        { tgt = Some node; marked = false }
                    then link_level (lvl + 1)
                    else link_level lvl
                  end
                  else link_level lvl
                  end
                end
              end
            end
          in
          link_level 1;
          true
        end

  let rec remove_with t g key =
    let s = find t g key in
    match s.found with
    | Some n when (S.data n).key = key ->
        let pl = S.data n in
        (* Mark from the top level down; only the thread that marks level 0
           owns the logical deletion. *)
        let rec mark_upper lvl =
          if lvl >= 1 then begin
            let l = A.get pl.next.(lvl) in
            if l.marked then mark_upper (lvl - 1)
            else if A.compare_and_set pl.next.(lvl) l { l with marked = true }
            then mark_upper (lvl - 1)
            else mark_upper lvl
          end
        in
        mark_upper (pl.height - 1);
        let rec mark_bottom () =
          let l = A.get pl.next.(0) in
          if l.marked then false (* someone else won the deletion *)
          else if A.compare_and_set pl.next.(0) l { l with marked = true }
          then true
          else mark_bottom ()
        in
        if mark_bottom () then begin
          (* Purge: physically unlink [n] from every level, scanning past
             equal keys so a concurrent same-key insertion cannot hide the
             dying tower (the classic duplicate-key hazard); only then is
             the node unreachable and retirable — by us, exactly once. *)
          let depth = ref 0 in
          let protect_link source =
            incr depth;
            S.protect t.smr g ~idx:(!depth mod 3)
              ~read:(fun () -> A.get source)
              ~target:(fun l -> l.tgt)
          in
          let rec purge lvl =
            (* Invariant: [pred_link] is unmarked (we only advance over
               unmarked links and help-unlink marked successors), so the
               unlink CAS never resurrects a deleted predecessor. *)
            let rec scan pred pred_link =
              match pred_link.tgt with
              | Some cn ->
                  let cpl = S.data cn in
                  let link = protect_link cpl.next.(lvl) in
                  if link.marked then begin
                    (* [cn] is deleted at this level (possibly [n]):
                       unlink it here. *)
                    let desired = { tgt = link.tgt; marked = false } in
                    if A.compare_and_set (cell t pred lvl) pred_link desired
                    then begin
                      if cn == n then () (* our target: done at this level *)
                      else scan pred desired
                    end
                    else restart ()
                  end
                  else if cn == n then restart () (* mark not visible yet *)
                  else if cpl.key <= key then scan (Tower cpl) link
                  else () (* walked past: not linked at this level *)
              | None -> ()
            and restart () = scan Head (protect_link t.head.(lvl)) in
            restart ();
            if lvl > 0 then purge (lvl - 1)
          in
          purge (pl.height - 1);
          S.retire t.smr g n;
          true
        end
        else remove_with t g key
    | _ -> false

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
