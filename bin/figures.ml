(** CLI for the paper's evaluation: every table and figure ([all], or one
    section at a time), the verdict scenarios, schedule verification, and
    single workload points with custom parameters.

    Every sweep command runs through the plan executor, so results are
    cached under [.sweep-cache/] by default ([--no-cache] disables,
    [--cache-dir] relocates) and [--progress] streams per-cell progress
    with an ETA to stderr. *)

open Cmdliner
module Registry = Smr_harness.Registry
module Plan = Smr_harness.Plan
module Executor = Smr_harness.Executor

let scale_term =
  Arg.(
    value
    & vflag Plan.Quick
        [ (Plan.Full, info [ "full" ] ~doc:"Run at full (paper) scale.") ])

let cache_term =
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Disable the on-disk result cache (recompute every cell).")
  in
  let dir =
    Arg.(
      value & opt string ".sweep-cache"
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Result cache directory (created if missing).")
  in
  Term.(const (fun no dir -> if no then None else Some dir) $ no_cache $ dir)

let domains_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Fan the sweep out across $(docv) worker domains. Results, \
           failure rows and cache files are byte-identical to a sequential \
           run; only progress-line order differs. For $(b,parity), the \
           worker domains per native ladder rep (default 2), which is also the \
           simulated thread count.")

let progress_term =
  let p =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:"Print one progress line per cell (with ETA) to stderr.")
  in
  Term.(
    const (fun p ->
        if p then Some (Executor.print_progress Fmt.stderr) else None)
    $ p)

let fig_cmd (name, doc, driver) =
  let run domains cache on_progress scale =
    driver ?domains ?cache ?on_progress Fmt.stdout ~scale
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const run $ domains_term $ cache_term $ progress_term $ scale_term)

(* Every table and figure, in the order [all] prints them. *)
let sections =
  let open Smr_harness.Figures in
  [
    ( "table1",
      "Table 1: scheme comparison.",
      fun ?domains:_ ?cache:_ ?on_progress:_ ppf ~scale:_ -> table1 ppf );
    ("fig8", "Figures 8 & 9: x86-64 write-heavy.", fig8_9);
    ("fig10a", "Figure 10a: robustness under stalled threads.", fig10a);
    ("fig10b", "Figure 10b: trimming.", fig10b);
    ("fig11", "Figures 11 & 12: x86-64 read-mostly.", fig11_12);
    ("fig13", "Figures 13 & 14: PowerPC write-heavy.", fig13_14);
    ("fig15", "Figures 15 & 16: PowerPC read-mostly.", fig15_16);
    ("ablation", "Hyaline batch size, slot count and head ablations.", ablation);
    ("sensitivity", "Scheme ordering under three atomic-op price models.",
      sensitivity);
    ("breakdown", "Atomic operations per hash-map operation.", breakdown);
    ("metrics", "Scheme-internal metrics on the hash map.", metrics);
  ]

let all_cmd =
  fig_cmd
    ( "all",
      "Every table and figure, in order.",
      fun ?domains ?cache ?on_progress ppf ~scale ->
        List.iter
          (fun (_, _, driver) -> driver ?domains ?cache ?on_progress ppf ~scale)
          sections )

let ds_conv =
  Arg.enum
    (List.map (fun s -> (Registry.structure_name s, s)) Registry.structures)

let point_cmd =
  let doc = "Run one workload point with explicit parameters." in
  let scheme_conv =
    Arg.enum
      (List.map
         (fun n -> (String.lowercase_ascii n, n))
         Registry.every_scheme_name)
  in
  let ds =
    Arg.(
      value
      & opt ds_conv Registry.Hashmap
      & info [ "d"; "ds" ] ~doc:"Data structure.")
  in
  let scheme =
    Arg.(
      value & opt scheme_conv "Hyaline" & info [ "s"; "scheme" ] ~doc:"SMR scheme.")
  in
  let threads =
    Arg.(value & opt int 8 & info [ "t"; "threads" ] ~doc:"Active threads.")
  in
  let stalled =
    Arg.(value & opt int 0 & info [ "stalled" ] ~doc:"Stalled threads.")
  in
  let reads =
    Arg.(
      value & opt int 0
      & info [ "reads" ] ~doc:"Percentage of get operations (0-100).")
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
            "Slab-arena byte budget. Allocations beyond it first trigger \
             the scheme's reclamation relief; if that frees nothing the run \
             fails with a simulated OOM. Default: unlimited.")
  in
  let run ds scheme threads stalled reads node_bytes budget_bytes scale =
    let cfg =
      {
        (Plan.base_cfg ~max_threads:1) with
        Smr.Smr_intf.node_bytes;
        budget_bytes;
      }
    in
    let r =
      try
        Smr_harness.Figures.run_point ~stalled ~cfg ~ds ~scale
          ~mix:(Smr_harness.Workload.mix reads)
          scheme threads
      with Failure msg ->
        Fmt.epr "%s@." msg;
        exit 1
    in
    Fmt.pr "ops=%d steps=%d throughput=%.3f avg_unreclaimed=%.1f@." r.ops
      r.steps r.throughput r.avg_unreclaimed;
    Fmt.pr "final: %a@." Smr.Smr_intf.pp_stats r.final;
    let h = r.latency in
    Fmt.pr "latency (cost units): mean=%.1f p50=%d p99=%d max=%d@."
      (Smr_harness.Histogram.mean h)
      (Smr_harness.Histogram.percentile h 50)
      (Smr_harness.Histogram.percentile h 99)
      h.Smr_harness.Histogram.max;
    let c = r.op_costs in
    Fmt.pr
      "op costs: read=%d write=%d plain=%d cas=%d faa=%d swap=%d alloc=%d \
       (total %d)@."
      c.read_cost c.write_cost c.plain_write_cost c.cas_cost c.faa_cost
      c.swap_cost c.alloc_cost
      (Smr_runtime.Sim_cell.total_cost c);
    Fmt.pr "metrics: %a@." Smr.Metrics.pp r.metrics
  in
  Cmd.v (Cmd.info "point" ~doc)
    Term.(
      const run $ ds $ scheme $ threads $ stalled $ reads $ node_bytes
      $ budget_bytes $ scale_term)

let verify_cmd =
  let doc =
    "Adversarial schedule verification: sweep every SMR scheme against \
     every data structure under sleep-set DFS, weighted random walks and \
     PCT schedules; shrink and dump any counterexample as a replayable \
     trace file. Exits 1 on any violation."
  in
  let module V = Smr_harness.Verify in
  let module E = Smr_runtime.Explore in
  let module T = Smr_harness.Trace_file in
  let seed_t = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Base seed.") in
  let trace_dir_t =
    Arg.(
      value & opt string "."
      & info [ "trace-dir" ] ~doc:"Directory for counterexample trace files.")
  in
  let replay_t =
    Arg.(
      value & opt (some string) None
      & info [ "replay" ] ~doc:"Replay a trace file and exit.")
  in
  let replay_trace path =
    let tr = T.load ~path in
    let fail msg =
      Fmt.epr "replay failed: %s@." msg;
      exit 1
    in
    let scheme_name =
      match T.meta_value tr "scheme" with
      | Some s -> s
      | None -> fail "trace has no scheme meta"
    in
    let structure =
      match
        Option.bind (T.meta_value tr "structure") Registry.structure_of_name
      with
      | Some s -> s
      | None -> fail "trace has no valid structure meta"
    in
    let scheme =
      match V.scheme_of_name scheme_name with
      | Some s -> s
      | None -> fail ("unknown scheme " ^ scheme_name)
    in
    let churn =
      match T.meta_value tr "churn" with Some "true" -> true | _ -> false
    in
    let program = V.program_for ~churn scheme structure in
    (match E.replay_outcome ~faults:tr.T.faults program tr.T.schedule with
    | Ok () ->
        Fmt.epr "trace did NOT reproduce: run succeeded@.";
        exit 1
    | Error m when m = tr.T.message ->
        Fmt.pr "reproduced: %s@." m
    | Error m ->
        Fmt.epr "trace reproduced a DIFFERENT failure: %s (expected %s)@." m
          tr.T.message;
        exit 1)
  in
  (* Scheme names may contain '/' (Hyaline/llsc) — flatten for filenames
     only; the trace meta keeps the canonical name for replay lookup. *)
  let file_safe = String.map (fun c -> if c = '/' then '-' else c) in
  let run seed trace_dir replay scale =
    match replay with
    | Some path -> replay_trace path
    | None ->
        let budgets =
          match scale with
          | Plan.Quick -> V.smoke_budgets
          | Plan.Full ->
              { V.dfs_limit = 2_000; walks = 100; change_points = 3 }
        in
        let cells = V.run_matrix ~seed ~budgets () in
        let skipped =
          List.length
            (List.filter
               (fun c -> match c.V.c_verdict with V.Skipped _ -> true | _ -> false)
               cells)
        in
        let failed = List.length (V.failures cells) in
        List.iter
          (fun (c : V.cell) ->
            match c.V.c_verdict with
            | V.Pass _ | V.Skipped _ -> ()
            | V.Fail { schedule; shrunk; message } ->
                let sname = c.V.c_scheme in
                let ds = Registry.structure_name c.V.c_structure in
                let m = c.V.c_mode and churn = c.V.c_churn in
                let file =
                  Printf.sprintf "%s/TRACE_%s_%s_%s%s.txt" trace_dir
                    (file_safe sname) ds (V.mode_name m)
                    (if churn then "_churn" else "")
                in
                T.save ~path:file
                  {
                    T.meta =
                      [
                        ("scheme", sname);
                        ("structure", ds);
                        ("mode", V.mode_name m);
                        ("churn", string_of_bool churn);
                        ("seed", string_of_int seed);
                      ];
                    faults = [];
                    schedule = shrunk;
                    message;
                  };
                Fmt.pr
                  "FAIL %-12s %-8s %-6s %-6s: %s (schedule %d decisions, \
                   shrunk to %d) -> %s@."
                  sname ds (V.mode_name m)
                  (if churn then "churn" else "static")
                  message (List.length schedule) (List.length shrunk) file)
          cells;
        Fmt.pr "conformance: %d cells (%d skipped), %d violation(s)@."
          (List.length cells) skipped failed;
        if failed > 0 then exit 1
  in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(const run $ seed_t $ trace_dir_t $ replay_t $ scale_term)

(* One subcommand per verdict scenario: print the tables and the verdict,
   optionally write and re-read BENCH_<artifact>.json, and exit 1 unless
   the verdict holds. *)
let scenario_cmd (Smr_harness.Scenario.Any sc as scenario) =
  let module S = Smr_harness.Scenario in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output-dir" ] ~docv:"DIR"
          ~doc:
            (Printf.sprintf
               "Write the verdict envelope BENCH_%s.json to $(docv) and \
                re-read it; the exit status is the re-read verdict."
               sc.S.artifact))
  in
  let run out domains cache on_progress scale =
    let ok =
      S.run ?out Fmt.stdout { S.scale; domains; cache; on_progress } scenario
    in
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info sc.S.kind ~doc:(sc.S.doc ^ " Exits 1 unless the verdict holds."))
    Term.(
      const run $ out $ domains_term $ cache_term $ progress_term
      $ scale_term)

(* Must come first: if this process is a re-exec'd native-cell worker
   (see Native_workload.guard_main), it runs the cell and exits instead
   of parsing the command line. *)
let () = Smr_harness.Native_workload.guard_main ()

let () =
  let cmds =
    List.map fig_cmd sections
    @ [ all_cmd; point_cmd; verify_cmd ]
    @ List.map scenario_cmd Smr_harness.Scenario.all
  in
  let info =
    Cmd.info "hyaline-figures"
      ~doc:"Regenerate the Hyaline paper's evaluation figures."
  in
  exit (Cmd.eval (Cmd.group info cmds))
