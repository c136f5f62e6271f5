(* Must come first: if this process is a re-exec'd native-cell worker
   (see Native_workload.guard_main), it runs the cell and exits instead
   of running the suite. *)
let () = Smr_harness.Native_workload.guard_main ()

let () =
  Alcotest.run "hyaline"
    [
      ("runtime", Test_runtime.suite);
      ("lifecycle", Test_lifecycle.suite);
      ("smr", Test_smr.suite);
      ("hyaline", Test_hyaline.suite);
      ("ds", Test_ds.suite);
      ("robust", Test_robust.suite);
      ("queue", Test_queue.suite);
      ("edge", Test_edge.suite);
      ("native", Test_native.suite);
      ("native-parity", Test_native_parity.suite);
      ("explore", Test_explore.suite);
      ("conformance", Test_conformance.suite);
      ("crystalline", Test_crystalline.suite);
      ("single-slot", Test_single_slot.suite);
      ("schemes-unit", Test_schemes_unit.suite);
      ("linearize", Test_linearize.suite);
      ("metrics", Test_metrics.suite);
      ("mem", Test_mem.suite);
      ("executor", Test_executor.suite);
      ("service", Test_service.suite);
      ("scenario", Test_scenario.suite);
      ("figures", Test_figures.suite);
    ]
