(** Michael–Scott queue: FIFO semantics per producer, element conservation
    under concurrency, reclamation at quiescence — across schemes. *)

module Sched = Smr_runtime.Scheduler
open Test_support

module Make (S : SMR) = struct
  module Q = Smr_ds.Ms_queue.Make (S)

  let test_sequential_fifo () =
    run_solo (fun () ->
        let q = Q.create (test_cfg ~threads:1) in
        for i = 1 to 100 do
          Q.enqueue q i
        done;
        for i = 1 to 100 do
          Alcotest.(check (option int)) "fifo order" (Some i) (Q.dequeue q)
        done;
        Alcotest.(check (option int)) "empty" None (Q.dequeue q))

  (* Producers/consumers: every value dequeued exactly once, per-producer
     order preserved, nothing invented. *)
  let test_concurrent_conservation () =
    for seed = 1 to 6 do
      let producers = 4 and consumers = 4 and per_producer = 120 in
      let cfg = test_cfg ~threads:(producers + consumers) in
      let q = Q.create cfg in
      let consumed = Array.make (producers * per_producer) 0 in
      let sched = Sched.create ~seed () in
      for p = 0 to producers - 1 do
        ignore
          (Sched.spawn sched (fun () ->
               for i = 0 to per_producer - 1 do
                 Q.enqueue q ((p * per_producer) + i)
               done))
      done;
      for _ = 1 to consumers do
        ignore
          (Sched.spawn sched (fun () ->
               for _ = 1 to producers * per_producer do
                 match Q.dequeue q with
                 | Some v -> consumed.(v) <- consumed.(v) + 1
                 | None -> ()
               done))
      done;
      (match Sched.run sched with
      | Sched.All_finished -> ()
      | _ -> Alcotest.fail "queue workload did not finish");
      (* Drain leftovers. *)
      run_solo (fun () ->
          let rec drain () =
            match Q.dequeue q with
            | Some v ->
                consumed.(v) <- consumed.(v) + 1;
                drain ()
            | None -> ()
          in
          drain ());
      Array.iteri
        (fun v n ->
          Alcotest.(check int) (Printf.sprintf "value %d exactly once" v) 1 n)
        consumed
    done

  let test_reclamation () =
    let cfg = test_cfg ~threads:4 in
    let q = Q.create cfg in
    ignore
      (run_threads ~threads:4 (fun tid ->
           for i = 1 to 150 do
             Q.enqueue q ((tid * 1000) + i);
             if i mod 2 = 0 then ignore (Q.dequeue q)
           done));
    run_solo (fun () -> while Q.dequeue q <> None do () done);
    Q.flush q;
    if S.scheme_name <> "Leaky" then begin
      let s = Q.stats q in
      (* The current dummy node is alive by design; everything else must
         be reclaimed. *)
      Alcotest.(check bool) "at most nothing unreclaimed" true
        (Smr.Smr_intf.unreclaimed s = 0)
    end

  let suite tag =
    [
      Alcotest.test_case (tag ^ ":fifo") `Quick test_sequential_fifo;
      Alcotest.test_case (tag ^ ":conservation") `Quick
        test_concurrent_conservation;
      Alcotest.test_case (tag ^ ":reclamation") `Quick test_reclamation;
    ]
end

(* A dequeuer that protected the old head, then stalled while others
   dequeued past it: the head's [next] link never changes once set, so
   re-reading it cannot tell that the successor was dequeued, retired and
   freed meanwhile. Only re-checking that the head is still the queue's
   head makes the successor's hazard sound. Without that check the
   explorer finds the use-after-free at most of these stall points (the
   race the native matrix hit as an intermittent HP/queue failure); with
   it, no execution may dereference a freed successor. *)
module Hp_queue = Smr_ds.Ms_queue.Make (Hp)

let test_hp_dequeue_validates_head () =
  let program () =
    let q =
      Hp_queue.create { (test_cfg ~threads:3) with Smr.Smr_intf.batch_size = 1 }
    in
    ( [
        (fun () -> ignore (Hp_queue.dequeue q));
        (* Three dequeues: the third one's scan is the first that runs
           after this thread dropped its own hazard on the successor. *)
        (fun () ->
          List.iter (Hp_queue.enqueue q) [ 1; 2; 3; 4 ];
          for _ = 1 to 3 do
            ignore (Hp_queue.dequeue q)
          done);
        (* Keeps scheduling decisions coming while the dequeuer is parked,
           so the fault plan's resume point is always reached. *)
        (fun () ->
          for _ = 1 to 400 do
            Sim.yield ()
          done);
      ],
      fun () -> true )
  in
  for at = 1 to 30 do
    match
      Smr_runtime.Explore.explore
        ~mode:(Smr_runtime.Explore.Random_walk { walks = 10 })
        ~seed:at
        ~faults:
          [ Smr_runtime.Explore.stall_at ~victim:0 ~at ~resume_at:(at + 300) () ]
        ~max_steps:max_int program
    with
    | Smr_runtime.Explore.Violation { message; _ } ->
        Alcotest.fail (Printf.sprintf "dequeuer parked at %d: %s" at message)
    | Smr_runtime.Explore.Exhausted _ | Smr_runtime.Explore.Limit_reached _ ->
        ()
  done

let suite =
  Alcotest.test_case "hp-dequeue-validates-head" `Quick
    test_hp_dequeue_validates_head
  :: List.concat_map
    (fun (name, (module S : SMR)) ->
      let module T = Make (S) in
      T.suite name)
    [
      ("hyaline", (module Hyaline : SMR));
      ("hyaline-1s", (module Hyaline1s));
      ("epoch", (module Ebr));
      ("hp", (module Hp));
      ("ibr", (module Ibr));
    ]
