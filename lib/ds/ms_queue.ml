(** Michael & Scott's lock-free FIFO queue with SMR-managed nodes. The
    dequeuer retires the old dummy node; the helping rule (advancing a
    lagging tail) is standard. Used by examples and cross-scheme tests. *)

module Make (S : Smr.Smr_intf.SMR) = struct
  let ds_name = "ms-queue"

  module S = S
  module A = S.R.Atomic

  type 'v pl = { value : 'v option; next : 'v pl S.node option A.t }
  type 'v t = { smr : 'v pl S.t; head : 'v pl S.node A.t; tail : 'v pl S.node A.t }
  type 'v guard = 'v pl S.guard

  let create cfg =
    let smr = S.create cfg in
    let dummy = S.alloc smr { value = None; next = A.make None } in
    { smr; head = A.make dummy; tail = A.make dummy }

  let enter t = S.enter t.smr
  let leave t g = S.leave t.smr g
  let refresh t g = S.refresh t.smr g

  let enqueue_with t g value =
    let node = S.alloc t.smr { value = Some value; next = A.make None } in
    let rec attempt () =
      let tail =
        S.protect t.smr g ~idx:0
          ~read:(fun () -> A.get t.tail)
          ~target:Fun.id
      in
      let tpl = S.data tail in
      match A.get tpl.next with
      | None ->
          if A.compare_and_set tpl.next None (Some node) then
            ignore (A.compare_and_set t.tail tail node)
          else attempt ()
      | Some successor ->
          (* Help a lagging tail along. *)
          ignore (A.compare_and_set t.tail tail successor);
          attempt ()
    in
    attempt ()

  let dequeue_with t g =
    let rec attempt () =
      let head =
        S.protect t.smr g ~idx:0
          ~read:(fun () -> A.get t.head)
          ~target:Fun.id
      in
      let hpl = S.data head in
      let next =
        S.protect t.smr g ~idx:1
          ~read:(fun () -> A.get hpl.next)
          ~target:Smr.Smr_intf.of_option
      in
      (* A [next] link never changes once set, so the protect above cannot
         tell whether [head] was dequeued meanwhile — and with it [next],
         possibly already reclaimed. [head] still being the queue's head
         proves [next] was reachable when its reservation went up. *)
      if A.get t.head != head then attempt ()
      else
        match next with
        | None -> None
        | Some n ->
            let tail = A.get t.tail in
            if tail == head then ignore (A.compare_and_set t.tail tail n);
            let v = (S.data n).value in
            if A.compare_and_set t.head head n then begin
              S.retire t.smr g head;
              v
            end
            else attempt ()
    in
    attempt ()

  (* Protected read of the front value (the dummy's successor) without
     dequeuing; [None] on an empty queue. *)
  let rec peek_with t g =
    let head =
      S.protect t.smr g ~idx:0
        ~read:(fun () -> A.get t.head)
        ~target:Fun.id
    in
    let hpl = S.data head in
    let next =
      S.protect t.smr g ~idx:1
        ~read:(fun () -> A.get hpl.next)
        ~target:Smr.Smr_intf.of_option
    in
    (* The same head re-check as [dequeue_with]. *)
    if A.get t.head != head then peek_with t g
    else match next with None -> None | Some n -> (S.data n).value

  let enqueue t v =
    let g = enter t in
    enqueue_with t g v;
    leave t g

  let dequeue t =
    let g = enter t in
    let r = dequeue_with t g in
    leave t g;
    r

  let register ?tid t = S.register ?tid t.smr
  let deregister t s = S.deregister t.smr s
  let flush t = S.flush t.smr
  let relieve t = S.relieve t.smr
  let stats t = S.stats t.smr
  let metrics t = S.metrics t.smr
end
