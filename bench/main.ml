(** Benchmark entry point: regenerates every table and figure of the
    paper's evaluation.

    - Bechamel micro-benchmarks (native runtime, wall-clock ns) for the
      per-primitive costs behind Table 1 — the scheme list is
      {!Registry.Native.every_scheme}, so both LL/SC-headed variants are
      measured alongside the dwCAS ones;
    - the simulated-figure drivers for Figs. 8–16 and Table 1;
    - ablations for the design choices DESIGN.md calls out (batch size,
      slot count, dwCAS vs LL/SC head).

    All simulated sections run through {!Plan} + {!Executor}, so results
    are cached under [.sweep-cache/] by default: an interrupted run
    resumes, a repeated run replays. [--no-cache] disables the cache,
    [--cache-dir DIR] relocates it.

    Usage: [main.exe [section ...] [--full] [--no-cache] [--cache-dir DIR]]
    where section is one of
    [micro fig8 fig10a fig10b fig11 fig13 fig15 table1 ablation
    sensitivity breakdown metrics all]
    (default: all, quick scale). *)

module Figures = Smr_harness.Figures
module Workload = Smr_harness.Workload
module Registry = Smr_harness.Registry
module Plan = Smr_harness.Plan
module Executor = Smr_harness.Executor

(* ---- Bechamel micro-benchmarks over the native runtime ---------------- *)

module Native = Smr_runtime.Native_runtime

let bench_cfg =
  {
    Smr.Smr_intf.default_config with
    max_threads = 8;
    slots = 8;
    batch_size = 32;
  }

(* One Test.make per scheme per primitive: enter+leave, protect, retire. *)
let micro_tests () =
  let open Bechamel in
  let tests_of (name, (module S : Smr.Smr_intf.SMR)) =
    let t = S.create bench_cfg in
    let cell = Native.Atomic.make (Some (S.alloc t 0)) in
    let enter_leave =
      Test.make
        ~name:(name ^ "/enter-leave")
        (Staged.stage (fun () -> S.leave t (S.enter t)))
    in
    let protect =
      let g = S.enter t in
      Test.make
        ~name:(name ^ "/protect")
        (Staged.stage (fun () ->
             ignore
               (S.protect t g ~idx:0
                  ~read:(fun () -> Native.Atomic.get cell)
                  ~target:Smr.Smr_intf.of_option)))
    in
    let retire =
      let g = S.enter t in
      Test.make
        ~name:(name ^ "/alloc-retire")
        (Staged.stage (fun () -> S.retire t g (S.alloc t 0)))
    in
    [ enter_leave; protect; retire ]
  in
  List.concat_map tests_of Registry.Native.every_scheme

let run_micro ppf =
  let open Bechamel in
  Native.set_self 0;
  Fmt.pf ppf "# Micro-benchmarks (native runtime, wall clock)@.";
  Fmt.pf ppf "One Bechamel test per scheme per primitive; ns per call.@.@.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None ()
  in
  Fmt.pf ppf "%-28s %14s@." "benchmark" "ns/call";
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] test in
      let results = Analyze.all ols instance raw in
      Hashtbl.iter
        (fun name ols_result ->
          let estimate =
            match Analyze.OLS.estimates ols_result with
            | Some [ e ] -> e
            | Some _ | None -> nan
          in
          Fmt.pf ppf "%-28s %14.1f@." name estimate)
        results)
    (micro_tests ());
  Fmt.pf ppf "@."

(* ---- Plan helpers for the simulated sections --------------------------- *)

(* Run a list of cells as one plan, aborting on any failed cell (these
   sections print fixed-shape tables, a hole would misalign them). *)
let exec ?cache name cells =
  let summary = Executor.run ?cache { Plan.name; cells } in
  List.map
    (fun (r : Executor.row) ->
      match r.Executor.outcome with
      | Executor.Done res -> res
      | Executor.Failed msg ->
          failwith
            (Printf.sprintf "%s: cell %s failed: %s" name
               r.Executor.cell.Plan.label msg))
    summary.Executor.rows

let hashmap_cell ?cfg ?label ~scale scheme threads =
  Plan.cell ?cfg ?label ~scale ~mix:Workload.write_heavy ~scheme
    ~structure:Registry.Hashmap ~threads ()

(* ---- Ablations --------------------------------------------------------- *)

let ablation ?cache ppf ~scale =
  Fmt.pf ppf "# Ablations (hash map, write-heavy, 9 threads)@.@.";
  let threads = 9 in
  (* Batch size sweep (§3.2: batch size plays the role of epoch frequency). *)
  Fmt.pf ppf "## Hyaline batch size (slots = 32)@.";
  Fmt.pf ppf "%-12s %14s %14s@." "batch" "throughput" "unreclaimed";
  let batches = [ 16; 64; 128; 256 ] in
  let rs =
    exec ?cache "ablation-batch"
      (List.map
         (fun batch_size ->
           let cfg =
             { (Plan.base_cfg ~max_threads:1) with slots = 32; batch_size }
           in
           hashmap_cell ~cfg ~label:(string_of_int batch_size) ~scale "Hyaline"
             threads)
         batches)
  in
  List.iter2
    (fun batch_size (r : Workload.result) ->
      Fmt.pf ppf "%-12d %14.3f %14.1f@." (max batch_size 33) r.throughput
        r.avg_unreclaimed)
    batches rs;
  Fmt.pf ppf "@.";
  (* Slot count: k = 1 is the single-list §3.1 algorithm. *)
  Fmt.pf ppf "## Hyaline slot count (batch = max(32, k+1))@.";
  Fmt.pf ppf "%-12s %14s %14s@." "slots" "throughput" "unreclaimed";
  let slot_counts = [ 1; 8; 32; 128 ] in
  let rs =
    exec ?cache "ablation-slots"
      (List.map
         (fun slots ->
           let cfg = { (Plan.base_cfg ~max_threads:1) with slots } in
           hashmap_cell ~cfg ~label:(string_of_int slots) ~scale "Hyaline"
             threads)
         slot_counts)
  in
  List.iter2
    (fun slots (r : Workload.result) ->
      Fmt.pf ppf "%-12d %14.3f %14.1f@." slots r.throughput r.avg_unreclaimed)
    slot_counts rs;
  Fmt.pf ppf "@.";
  (* Head implementation: dwCAS vs the Fig. 7 LL/SC model. *)
  Fmt.pf ppf "## Head implementation (slots = 32, batch = 33)@.";
  Fmt.pf ppf "%-12s %14s %14s@." "head" "throughput" "unreclaimed";
  let heads = [ ("dwcas", "Hyaline"); ("llsc", "Hyaline/llsc") ] in
  let rs =
    exec ?cache "ablation-head"
      (List.map
         (fun (label, scheme) ->
           hashmap_cell
             ~cfg:(Plan.base_cfg ~max_threads:1)
             ~label ~scale scheme threads)
         heads)
  in
  List.iter2
    (fun (name, _) (r : Workload.result) ->
      Fmt.pf ppf "%-12s %14.3f %14.1f@." name r.throughput r.avg_unreclaimed)
    heads rs;
  Fmt.pf ppf "@."

(* ---- Atomic-operation breakdown ----------------------------------------- *)

(* How many atomic operations of each kind one data-structure operation
   costs under each scheme — the microscopic story behind every throughput
   figure. *)
let breakdown ?cache ppf ~scale =
  Fmt.pf ppf "# Atomic ops per hash-map operation (write-heavy, 9 threads)@.@.";
  Fmt.pf ppf "%-12s %8s %8s %8s %8s %8s %8s %8s %9s@." "scheme" "reads"
    "writes" "plain-w" "cas-ok" "cas-fail" "faa" "swap" "cost/op";
  let names = Registry.scheme_names Registry.X86 in
  let rs =
    exec ?cache "breakdown"
      (List.map (fun name -> hashmap_cell ~scale name 9) names)
  in
  List.iter2
    (fun name (r : Workload.result) ->
      (* [Workload.run] already scopes the per-class counters to the
         measured phase — no global reset needed, so concurrent callers
         and the prefill phase can no longer pollute the numbers. *)
      let c = r.op_costs in
      let per x = float_of_int x /. float_of_int (max 1 r.ops) in
      Fmt.pf ppf "%-12s %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f %9.1f@."
        name (per c.reads) (per c.writes) (per c.plain_writes) (per c.cas_ok)
        (per c.cas_fail) (per c.faas) (per c.swaps)
        (per (Smr_runtime.Sim_cell.total_cost c)))
    names rs;
  Fmt.pf ppf "@."

(* ---- Scheme-internal metrics ------------------------------------------- *)

(* The scheme-specific series from [Smr.Metrics]: why a scheme behaves the
   way it does — batches sealed and CAS retries for Hyaline, scan counts
   for the pointer/era schemes, epoch advances for EBR. *)
let metrics_section ?cache ppf ~scale =
  Fmt.pf ppf "# Scheme metrics (hash map, write-heavy, 9 threads)@.@.";
  let names = Registry.scheme_names Registry.X86 in
  let rs =
    exec ?cache "metrics"
      (List.map (fun name -> hashmap_cell ~scale name 9) names)
  in
  List.iter
    (fun (r : Workload.result) -> Fmt.pf ppf "%a@." Smr.Metrics.pp r.metrics)
    rs;
  Fmt.pf ppf "@."

(* ---- Cost-model sensitivity -------------------------------------------- *)

(* The figure shapes should not be an artefact of the exact atomic-op
   prices. Sweep the CAS/fenced-store price from optimistic to
   pessimistic and show the scheme ordering on the hash map is stable.
   The cost model is part of every cell's cache key, so the three models
   cache independently. *)
let sensitivity ?cache ppf ~scale =
  Fmt.pf ppf "# Cost-model sensitivity (hash map, write-heavy, 36 threads)@.";
  Fmt.pf ppf
    "Throughput ordering under different atomic-op price models.@.@.";
  let schemes = [ "Leaky"; "Epoch"; "HP"; "Hyaline"; "Hyaline-1" ] in
  let models =
    [
      ("cheap-rmw (cas=2)", { Smr_runtime.Sim_cell.read = 1; write = 2; cas = 2; faa = 2; swap = 2; alloc = 3 });
      ("default  (cas=4)", Smr_runtime.Sim_cell.default_costs);
      ("dear-rmw (cas=10)", { read = 1; write = 6; cas = 10; faa = 8; swap = 9; alloc = 8 });
    ]
  in
  Fmt.pf ppf "%-20s" "model";
  List.iter (fun n -> Fmt.pf ppf " %12s" n) schemes;
  Fmt.pf ppf "@.";
  let saved = Smr_runtime.Sim_cell.current_costs () in
  Fun.protect
    ~finally:(fun () -> Smr_runtime.Sim_cell.set_costs saved)
    (fun () ->
      List.iter
        (fun (mname, model) ->
          Smr_runtime.Sim_cell.set_costs model;
          let rs =
            exec ?cache "sensitivity"
              (List.map (fun name -> hashmap_cell ~scale name 36) schemes)
          in
          Fmt.pf ppf "%-20s" mname;
          List.iter
            (fun (r : Workload.result) -> Fmt.pf ppf " %12.3f" r.throughput)
            rs;
          Fmt.pf ppf "@.")
        models);
  Fmt.pf ppf "@."

(* ---- Driver ------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse (sections, full, cache) = function
    | [] -> (List.rev sections, full, cache)
    | "--full" :: rest -> parse (sections, true, cache) rest
    | "--no-cache" :: rest -> parse (sections, full, None) rest
    | "--cache-dir" :: dir :: rest -> parse (sections, full, Some dir) rest
    | "--cache-dir" :: [] -> invalid_arg "--cache-dir needs an argument"
    | s :: rest -> parse (s :: sections, full, cache) rest
  in
  let sections, full, cache =
    parse ([], false, Some ".sweep-cache") args
  in
  let scale = if full then Figures.Full else Figures.Quick in
  let sections = if sections = [] then [ "all" ] else sections in
  let want s = List.mem "all" sections || List.mem s sections in
  let ppf = Fmt.stdout in
  if want "micro" then run_micro ppf;
  if want "table1" then Figures.table1 ppf;
  if want "fig8" then Figures.fig8_9 ?cache ppf ~scale;
  if want "fig10a" then Figures.fig10a ?cache ppf ~scale;
  if want "fig10b" then Figures.fig10b ?cache ppf ~scale;
  if want "fig11" then Figures.fig11_12 ?cache ppf ~scale;
  if want "fig13" then Figures.fig13_14 ?cache ppf ~scale;
  if want "fig15" then Figures.fig15_16 ?cache ppf ~scale;
  if want "ablation" then ablation ?cache ppf ~scale;
  if want "sensitivity" then sensitivity ?cache ppf ~scale;
  if want "breakdown" then breakdown ?cache ppf ~scale;
  if want "metrics" then metrics_section ?cache ppf ~scale
