(** CLI for regenerating individual figures, or single workload points with
    custom parameters — the knob-twiddling companion to [bench/main.exe].

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
           worker domains per native cell (default 2), which is also the \
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

(* Enabling is a side effect of term evaluation, so every command gets the
   flag by composing this term; the returned bool gates the final report. *)
let profile_term =
  let p =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Collect per-phase wall-clock timings (prefill, measured run, \
             cache IO) and print them to stderr on exit. $(b,bench) also \
             embeds a \"profile\" section in the JSON report.")
  in
  Term.(
    const (fun p ->
        Smr_harness.Profile.set_enabled p;
        p)
    $ p)

let profile_report profile =
  if profile then Fmt.epr "%a" Smr_harness.Profile.pp ()

let fig_cmd name doc driver =
  let run profile domains cache on_progress scale =
    driver ?domains ?cache ?on_progress Fmt.stdout ~scale;
    profile_report profile
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ profile_term $ domains_term $ cache_term $ progress_term
      $ scale_term)

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
  let run ds scheme threads stalled reads node_bytes budget_bytes profile scale =
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
    Fmt.pr "metrics: %a@." Smr.Metrics.pp r.metrics;
    profile_report profile
  in
  Cmd.v (Cmd.info "point" ~doc)
    Term.(
      const run $ ds $ scheme $ threads $ stalled $ reads $ node_bytes
      $ budget_bytes $ profile_term $ scale_term)

let bench_cmd =
  let doc =
    "Sweep schemes x structures x thread counts and write BENCH_<name>.json \
     — the repo's canonical machine-readable perf artifact."
  in
  let name_t =
    Arg.(
      value & opt string "quick"
      & info [ "n"; "name" ] ~doc:"Report name (file is BENCH_<name>.json).")
  in
  let structures =
    Arg.(
      value
      & opt_all ds_conv [ Registry.Hashmap ]
      & info [ "d"; "ds" ] ~doc:"Structures to sweep (repeatable).")
  in
  let thread_counts =
    Arg.(
      value & opt_all int [ 2; 8 ]
      & info [ "t"; "threads" ] ~doc:"Thread counts to sweep (repeatable).")
  in
  let dir =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output-dir" ] ~doc:"Directory for the report file.")
  in
  let run name structures thread_counts dir profile domains cache on_progress
      scale =
    let report, stats =
      Smr_harness.Report.collect ?domains ?cache ?on_progress ~name
        ~arch:Registry.X86 ~scale ~structures ~thread_counts ()
    in
    let extra =
      match Smr_harness.Profile.to_json () with
      | Some j -> [ ("profile", j) ]
      | None -> []
    in
    let path = Smr_harness.Report.write ?dir ~extra report in
    Fmt.pr "%a@." Executor.pp_stats stats;
    profile_report profile;
    (* Self-check: re-read the artifact, parse it against the schema, and
       assert it covers the full registry — CI keys off this. *)
    let parsed = Smr_harness.Report.parse (Smr_harness.Scenario.read_json path) in
    match Smr_harness.Report.validate parsed with
    | Ok () ->
        Fmt.pr "wrote %s: %d runs, schema ok, all schemes covered@." path
          (List.length parsed.Smr_harness.Report.p_points)
    | Error msg ->
        Fmt.epr "invalid report %s: %s@." path msg;
        exit 1
  in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(
      const run $ name_t $ structures $ thread_counts $ dir $ profile_term
      $ domains_term $ cache_term $ progress_term $ scale_term)

let verify_cmd =
  let doc =
    "Adversarial schedule verification: sweep every SMR scheme against \
     every data structure under sleep-set DFS, weighted random walks and \
     PCT schedules; probe robustness with stall injection; shrink and \
     dump any counterexample as a replayable trace file."
  in
  let module V = Smr_harness.Verify in
  let module E = Smr_runtime.Explore in
  let module T = Smr_harness.Trace_file in
  let mode_t =
    Arg.(
      value
      & opt (enum [ ("all", `All); ("dfs", `Dfs); ("random", `Random); ("pct", `Pct) ]) `All
      & info [ "m"; "mode" ] ~doc:"Exploration mode(s): all, dfs, random, pct.")
  in
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
  let shape_of_trace tr =
    let geti k d =
      match T.meta_value tr k with
      | Some v -> ( match int_of_string_opt v with Some n -> n | None -> d)
      | None -> d
    in
    {
      V.threads = geti "threads" V.default_shape.V.threads;
      ops = geti "ops" V.default_shape.V.ops;
      keys = geti "keys" V.default_shape.V.keys;
      prog_seed = geti "prog_seed" V.default_shape.V.prog_seed;
    }
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
      match Option.bind (T.meta_value tr "structure") V.structure_of_name with
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
    let program = V.program_for ~churn scheme structure (shape_of_trace tr) in
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
  let run mode seed trace_dir replay scale =
    match replay with
    | Some path -> replay_trace path
    | None ->
        let budgets =
          match scale with
          | Plan.Quick -> V.smoke_budgets
          | Plan.Full ->
              { V.dfs_limit = 2_000; walks = 100; change_points = 3 }
        in
        let modes =
          List.filter
            (fun m ->
              match (mode, m) with
              | `All, _ -> true
              | `Dfs, E.Dfs -> true
              | `Random, E.Random_walk _ -> true
              | `Pct, E.Pct _ -> true
              | _ -> false)
            (V.modes_of_budgets budgets)
        in
        let shape = V.default_shape in
        let failed = ref 0 in
        let cells = ref 0 in
        let skipped = ref 0 in
        List.iter
          (fun (sname, structure) ->
            let scheme =
              match V.scheme_of_name sname with
              | Some s -> (sname, s)
              | None -> Fmt.failwith "unknown scheme %s" sname
            in
            List.iter
              (fun (m, churn) ->
                let cell =
                  V.run_cell ~seed ~budgets ~shape ~churn scheme structure m
                in
                incr cells;
                match cell.V.c_verdict with
                | V.Pass _ -> ()
                | V.Skipped _ -> incr skipped
                | V.Fail { schedule; shrunk; message } ->
                    incr failed;
                    let file =
                      Printf.sprintf "%s/TRACE_%s_%s_%s%s.txt" trace_dir
                        (file_safe sname)
                        (V.structure_name structure)
                        (V.mode_name m)
                        (if churn then "_churn" else "")
                    in
                    T.save ~path:file
                      {
                        T.meta =
                          [
                            ("scheme", sname);
                            ("structure", V.structure_name structure);
                            ("mode", V.mode_name m);
                            ("churn", string_of_bool churn);
                            ("seed", string_of_int seed);
                            ("threads", string_of_int shape.V.threads);
                            ("ops", string_of_int shape.V.ops);
                            ("keys", string_of_int shape.V.keys);
                            ("prog_seed", string_of_int shape.V.prog_seed);
                          ];
                        faults = [];
                        schedule = shrunk;
                        message;
                      };
                    Fmt.pr
                      "FAIL %-12s %-8s %-6s %-6s: %s (schedule %d decisions, \
                       shrunk to %d) -> %s@."
                      sname
                      (V.structure_name structure)
                      (V.mode_name m)
                      (if churn then "churn" else "static")
                      message (List.length schedule) (List.length shrunk) file)
              (List.concat_map
                 (fun m -> [ (m, false); (m, true) ])
                 modes))
          (Plan.pairs (Plan.conformance ()));
        Fmt.pr "conformance: %d cells (%d skipped), %d violation(s)@." !cells
          !skipped !failed;
        (* Robustness probes: each scheme's peak unreclaimed under a
           stall-injected reader, judged against its own robust flag. *)
        let writers = 2 in
        let bound = V.robust_bound ~writers in
        let probes = V.probe_all ~seed:(seed + 3) ~writers () in
        let mismatches = ref 0 in
        List.iter
          (fun (r : V.robustness) ->
            let ok = if r.V.r_robust then r.V.r_peak <= bound else r.V.r_peak > bound in
            if not ok then incr mismatches;
            Fmt.pr "robustness %-12s robust=%-5b peak=%-6d retired=%-6d %s@."
              r.V.r_scheme r.V.r_robust r.V.r_peak r.V.r_retired
              (if ok then "ok" else "MISMATCH"))
          probes;
        Fmt.pr "robustness: %d scheme(s), bound %d, %d mismatch(es)@."
          (List.length probes) bound !mismatches;
        (* Wait-freedom probes (Crystalline): bounded memory under a
           stalled AND a killed reader, bounded per-op reader steps
           under the starvation schedule — Crystalline-W must hold both
           where the era-loop schemes and Epoch each lose one. *)
        let wf = V.waitfree_probe ~seed:(seed + 3) ~writers () in
        List.iter
          (fun (s : V.steps) ->
            Fmt.pr "waitfree steps %-14s bounded=%-5b %s@." s.V.s_scheme
              s.V.s_bounded
              (String.concat " "
                 (List.map
                    (fun (a, c) -> Printf.sprintf "%d:%d" a c)
                    s.V.s_costs)))
          wf.V.wf_steps;
        let peak rows name =
          (List.find (fun r -> r.V.r_scheme = name) rows).V.r_peak
        in
        List.iter
          (fun name ->
            Fmt.pr "waitfree memory %-14s stalled=%-6d killed=%-6d@." name
              (peak wf.V.wf_stall name) (peak wf.V.wf_kill name))
          V.wf_mem_schemes;
        Fmt.pr "waitfree: %s (bound %d)@."
          (if wf.V.wf_ok then "wait-free ok" else "MISMATCH")
          wf.V.wf_bound;
        if !failed > 0 || !mismatches > 0 || not wf.V.wf_ok then exit 1
  in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(
      const run $ mode_t $ seed_t $ trace_dir_t $ replay_t $ scale_term)

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
  (* Only wall-clock scenarios repeat their measurements. *)
  let reps =
    if sc.S.deterministic then Term.const 1
    else
      Arg.(
        value & opt int 3
        & info [ "reps" ] ~docv:"R"
            ~doc:
              "Native repetitions per ladder cell; the median ops/sec is \
               ranked, damping wall-clock noise.")
  in
  let run out profile domains cache on_progress reps scale =
    let ok =
      S.run ?out Fmt.stdout { S.scale; domains; cache; on_progress; reps }
        scenario
    in
    profile_report profile;
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info sc.S.kind ~doc:(sc.S.doc ^ " Exits 1 unless the verdict holds."))
    Term.(
      const run $ out $ profile_term $ domains_term $ cache_term
      $ progress_term $ reps $ scale_term)

(* Must come first: if this process is a re-exec'd native-cell worker
   (see Native_workload.guard_main), it runs the cell and exits instead
   of parsing the command line. *)
let () = Smr_harness.Native_workload.guard_main ()

let () =
  let open Smr_harness.Figures in
  let cmds =
    [
      fig_cmd "fig8" "Figures 8 & 9: x86-64 write-heavy." fig8_9;
      fig_cmd "fig10a" "Figure 10a: robustness under stalled threads." fig10a;
      fig_cmd "fig10b" "Figure 10b: trimming." fig10b;
      fig_cmd "fig11" "Figures 11 & 12: x86-64 read-mostly." fig11_12;
      fig_cmd "fig13" "Figures 13 & 14: PowerPC write-heavy." fig13_14;
      fig_cmd "fig15" "Figures 15 & 16: PowerPC read-mostly." fig15_16;
      Cmd.v (Cmd.info "table1" ~doc:"Table 1: scheme comparison.")
        Term.(const (fun () -> table1 Fmt.stdout) $ const ());
      point_cmd;
      bench_cmd;
      verify_cmd;
    ]
    @ List.map scenario_cmd Smr_harness.Scenario.all
  in
  let info =
    Cmd.info "hyaline-figures"
      ~doc:"Regenerate the Hyaline paper's evaluation figures."
  in
  exit (Cmd.eval (Cmd.group info cmds))
