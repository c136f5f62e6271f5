(** Soak/stress driver: hammer one scheme × structure combination across
    many seeds and interleavings until told to stop, relying on the
    lifecycle auditor to turn any reclamation bug into a crash with the
    failing seed printed. Used for long-running validation beyond the test
    suite's budgets. *)

open Cmdliner

let run ds scheme threads ops rounds quiescent node_bytes budget_bytes =
  let module Sched = Smr_runtime.Scheduler in
  let (module D : Smr_harness.Registry.CONC_SET) =
    Smr_harness.Registry.Sim.make_set ds scheme
  in
  let cfg =
    {
      Smr.Smr_intf.default_config with
      max_threads = threads;
      slots = 8;
      batch_size = 16;
      era_freq = 16;
      node_bytes;
      budget_bytes;
    }
  in
  let failures = ref 0 in
  for seed = 1 to rounds do
    let set = D.create ~buckets:1024 cfg in
    let sched = Sched.create ~seed () in
    for tid = 0 to threads - 1 do
      ignore
        (Sched.spawn sched (fun () ->
             let rng = Random.State.make [| seed; tid |] in
             for _ = 1 to ops do
               let key = Random.State.int rng 512 in
               match Random.State.int rng 3 with
               | 0 -> ignore (D.insert set key)
               | 1 -> ignore (D.remove set key)
               | _ -> ignore (D.contains set key)
             done))
    done;
    (try
       (match Sched.run sched with
       | Sched.All_finished -> ()
       | _ -> failwith "did not finish");
       if quiescent then begin
         let drainer = Sched.create () in
         ignore
           (Sched.spawn drainer (fun () ->
                for key = 0 to 511 do
                  ignore (D.remove set key)
                done));
         ignore (Sched.run drainer);
         D.flush set;
         let s = D.stats set in
         if D.S.scheme_name <> "Leaky" && Smr.Smr_intf.unreclaimed s <> 0
         then
           failwith
             (Fmt.str "leak at quiescence: %a" Smr.Smr_intf.pp_stats s)
       end
     with e ->
       incr failures;
       Fmt.pr "FAIL seed=%d: %s@." seed (Printexc.to_string e));
    if seed mod 50 = 0 then Fmt.pr "... %d/%d rounds@." seed rounds
  done;
  if !failures = 0 then Fmt.pr "OK: %d rounds clean@." rounds
  else begin
    Fmt.pr "%d failing rounds@." !failures;
    exit 1
  end

let () =
  let ds =
    Arg.(
      value
      & opt
          (enum
             (List.map
                (fun s -> (Smr_harness.Registry.structure_name s, s))
                Smr_harness.Registry.structures))
          Smr_harness.Registry.Hashmap
      & info [ "d"; "ds" ] ~doc:"Data structure.")
  in
  let scheme =
    Arg.(
      value
      & opt
          (enum
             (List.map
                (fun (n, m) -> (String.lowercase_ascii n, m))
                Smr_harness.Registry.Sim.every_scheme))
          (List.assoc "Hyaline" Smr_harness.Registry.Sim.every_scheme)
      & info [ "s"; "scheme" ] ~doc:"SMR scheme.")
  in
  let threads =
    Arg.(value & opt int 8 & info [ "t"; "threads" ] ~doc:"Threads.")
  in
  let ops =
    Arg.(value & opt int 300 & info [ "ops" ] ~doc:"Operations per thread.")
  in
  let rounds =
    Arg.(value & opt int 200 & info [ "r"; "rounds" ] ~doc:"Seeds to try.")
  in
  let quiescent =
    Arg.(
      value & opt bool true
      & info [ "quiescent" ] ~doc:"Check full reclamation after each round.")
  in
  let node_bytes =
    Arg.(
      value & opt int 64
      & info [ "node-bytes" ]
          ~doc:
            "Modelled payload bytes per node (per-scheme overhead is added \
             on top). Default 64.")
  in
  let budget_bytes =
    Arg.(
      value & opt (some int) None
      & info [ "budget-bytes" ]
          ~doc:
            "Slab-arena byte budget; exceeding it after reclamation relief \
             makes the round fail with a simulated OOM. Default: unlimited.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "hyaline-stress" ~doc:"Seeded soak testing with the auditor")
      Term.(
        const run $ ds $ scheme $ threads $ ops $ rounds $ quiescent
        $ node_bytes $ budget_bytes)
  in
  exit (Cmd.eval cmd)
