(** Reproduction drivers for every figure and table in the paper's
    evaluation (§6 + Appendix A). Each driver prints the same rows/series
    the paper plots; EXPERIMENTS.md records how the shapes compare.

    Since the plan/executor refactor, a driver is three declarative steps:
    build a {!Plan.t} (scheme names × structure × ladder, straight from
    the {!Registry}), hand it to {!Executor.run} (which caches results and
    records failures instead of aborting), and print the surviving rows.
    Workload sizing lives in {!Plan.preset}. *)

type scale = Plan.scale = Quick | Full

let ( // ) a b = float_of_int a /. float_of_int b

type series = { scheme : string; points : (int * Workload.result) list }
type grid_run = { title : string; grid : int list; series : series list }

(* -- running -------------------------------------------------------------- *)

let run_point ?stalled ?use_trim ?cfg ?budget ?prefill ?arch ~ds ~scale ~mix
    scheme threads =
  Executor.run_cell_exn
    (Plan.cell ?stalled ?use_trim ?cfg ?budget ?prefill ?arch ~scale ~mix
       ~scheme ~structure:ds ~threads ())

(* Execute a plan, surface failures on stderr (the sweep itself already
   survived them), and regroup the surviving rows into per-label series
   keyed by [x] (thread count for most figures, stalled count for 10a). *)
let exec ?domains ?cache ?on_progress ~x (plan : Plan.t) : series list =
  let summary = Executor.run ?domains ?cache ?on_progress plan in
  List.iter
    (fun (r : Executor.row) ->
      match r.Executor.outcome with
      | Executor.Done _ -> ()
      | Executor.Failed msg ->
          Fmt.epr "%s: cell %s/%s failed: %s@." plan.Plan.name
            r.Executor.cell.Plan.label
            (Registry.structure_name r.Executor.cell.Plan.structure)
            msg)
    summary.Executor.rows;
  let labels =
    List.fold_left
      (fun acc (r : Executor.row) ->
        let l = r.Executor.cell.Plan.label in
        if List.mem l acc then acc else acc @ [ l ])
      [] summary.Executor.rows
  in
  List.map
    (fun label ->
      {
        scheme = label;
        points =
          List.filter_map
            (fun (r : Executor.row) ->
              if String.equal r.Executor.cell.Plan.label label then
                match r.Executor.outcome with
                | Executor.Done res -> Some (x r.Executor.cell, res)
                | Executor.Failed _ -> None
              else None)
            summary.Executor.rows;
      })
    labels

let run_grid ?domains ?cache ?on_progress ~title ~ds ~mix ~arch ~scale ~grid
    () =
  let plan =
    Plan.grid ~name:title ~arch ~scale ~mix ~structures:[ ds ] ~threads:grid ()
  in
  {
    title;
    grid;
    series = exec ?domains ?cache ?on_progress ~x:(fun c -> c.Plan.threads) plan;
  }

(* -- table printing ------------------------------------------------------- *)

let print_table ppf { title; grid; series } ~ylabel ~value =
  Fmt.pf ppf "## %s — %s@." title ylabel;
  Fmt.pf ppf "%-10s" "threads";
  List.iter (fun s -> Fmt.pf ppf " %12s" s.scheme) series;
  Fmt.pf ppf "@.";
  List.iter
    (fun x ->
      Fmt.pf ppf "%-10d" x;
      List.iter
        (fun s ->
          match List.assoc_opt x s.points with
          | Some r -> Fmt.pf ppf " %12.3f" (value r)
          | None -> Fmt.pf ppf " %12s" "-")
        series;
      Fmt.pf ppf "@.")
    grid;
  Fmt.pf ppf "@."

let print_throughput ppf g =
  print_table ppf g ~ylabel:"throughput (ops / 1000 cost units)"
    ~value:(fun (r : Workload.result) -> r.throughput)

let print_unreclaimed ppf g =
  print_table ppf g ~ylabel:"avg unreclaimed objects (sampled per op)"
    ~value:(fun (r : Workload.result) -> r.avg_unreclaimed)

(* -- Figures 8/9 (x86 write-heavy), 11/12 (x86 read-mostly),
      13/14 (PPC write-heavy), 15/16 (PPC read-mostly) ------------------- *)

let fig_pair ?domains ?cache ?on_progress ppf ~scale ~arch ~mix
    ~(thr_fig : string) ~(unr_fig : string) =
  let grid =
    match arch with
    | Registry.X86 -> Plan.x86_grid scale
    | Registry.Ppc -> Plan.ppc_grid scale
  in
  let letters = [ "a"; "b"; "c"; "d" ] in
  List.iteri
    (fun i ds ->
      let letter = List.nth letters i in
      let g =
        run_grid ?domains ?cache ?on_progress
          ~title:
            (Fmt.str "Fig. %s%s/%s%s — %s" thr_fig letter unr_fig letter
               (Registry.ds_name ds))
          ~ds ~mix ~arch ~scale ~grid ()
      in
      print_throughput ppf
        { g with title = "Fig. " ^ thr_fig ^ letter ^ " — " ^ Registry.ds_name ds };
      print_unreclaimed ppf
        { g with title = "Fig. " ^ unr_fig ^ letter ^ " — " ^ Registry.ds_name ds })
    Registry.paper_structures

let fig8_9 ?domains ?cache ?on_progress ppf ~scale =
  Fmt.pf ppf "# Figures 8 & 9 — x86-64, write-heavy (50%% ins / 50%% del)@.@.";
  fig_pair ?domains ?cache ?on_progress ppf ~scale ~arch:Registry.X86
    ~mix:Workload.write_heavy ~thr_fig:"8" ~unr_fig:"9"

let fig11_12 ?domains ?cache ?on_progress ppf ~scale =
  Fmt.pf ppf "# Figures 11 & 12 — x86-64, read-mostly (90%% get / 10%% put)@.@.";
  fig_pair ?domains ?cache ?on_progress ppf ~scale ~arch:Registry.X86
    ~mix:Workload.read_mostly ~thr_fig:"11" ~unr_fig:"12"

let fig13_14 ?domains ?cache ?on_progress ppf ~scale =
  Fmt.pf ppf
    "# Figures 13 & 14 — PowerPC (Hyaline over LL/SC heads), write-heavy@.@.";
  fig_pair ?domains ?cache ?on_progress ppf ~scale ~arch:Registry.Ppc
    ~mix:Workload.write_heavy ~thr_fig:"13" ~unr_fig:"14"

let fig15_16 ?domains ?cache ?on_progress ppf ~scale =
  Fmt.pf ppf
    "# Figures 15 & 16 — PowerPC (Hyaline over LL/SC heads), read-mostly@.@.";
  fig_pair ?domains ?cache ?on_progress ppf ~scale ~arch:Registry.Ppc
    ~mix:Workload.read_mostly ~thr_fig:"15" ~unr_fig:"16"

(* -- Figure 10a: robustness under stalled threads ------------------------ *)

let fig10a ?domains ?cache ?on_progress ppf ~scale =
  let active, stall_grid, budget =
    match scale with
    | Quick -> (16, [ 0; 2; 4; 8; 12; 16 ], 1_000_000)
    | Full -> (72, [ 0; 9; 18; 36; 57; 72 ], 4_000_000)
  in
  (* The capped Hyaline-S slot count sits inside the stall grid so the
     paper's "ran out of slots" crossover is visible; small batches keep
     the healthy-scheme floor low relative to the stall-driven growth. *)
  let capped_slots = 8 in
  Fmt.pf ppf
    "# Fig. 10a — robustness, hash map, %d active threads, varying stalled@."
    active;
  Fmt.pf ppf
    "(Hyaline-S capped at k=%d slots; its adaptive variant resizes, §4.3)@.@."
    capped_slots;
  let cfg_plain =
    { (Plan.base_cfg ~max_threads:1) with slots = 16; batch_size = 16; era_freq = 16 }
  in
  let cfg_capped ~adaptive =
    { cfg_plain with slots = capped_slots; ack_threshold = 16; adaptive }
  in
  let entries =
    [
      ("Hyaline", "Hyaline", cfg_plain);
      ("Hyaline-1", "Hyaline-1", cfg_plain);
      ("Hyaline-S", "Hyaline-S", cfg_capped ~adaptive:false);
      ("Hyaline-S+resize", "Hyaline-S", cfg_capped ~adaptive:true);
      ("Hyaline-1S", "Hyaline-1S", cfg_plain);
      ("Epoch", "Epoch", cfg_plain);
      ("IBR", "IBR", cfg_plain);
      ("HE", "HE", cfg_plain);
      ("HP", "HP", cfg_plain);
    ]
  in
  let plan =
    {
      Plan.name = "fig10a";
      cells =
        List.concat_map
          (fun (label, scheme, cfg) ->
            List.map
              (fun stalled ->
                Plan.cell ~label ~scale ~stalled ~cfg ~budget ~prefill:500
                  ~mix:Workload.write_heavy ~scheme ~structure:Registry.Hashmap
                  ~threads:active ())
              stall_grid)
          entries;
    }
  in
  let series = exec ?domains ?cache ?on_progress ~x:(fun c -> c.Plan.stalled) plan in
  print_table ppf
    { title = "Fig. 10a — stalled threads (x axis)"; grid = stall_grid; series }
    ~ylabel:"avg unreclaimed objects (sampled per op)"
    ~value:(fun r -> r.avg_unreclaimed)

(* -- Figure 10b: trimming with few slots --------------------------------- *)

let fig10b ?domains ?cache ?on_progress ppf ~scale =
  let grid =
    match scale with
    | Quick -> [ 1; 2; 4; 8; 16; 24 ]
    | Full -> [ 1; 9; 18; 27; 36; 54; 72 ]
  in
  let slots = 8 in
  Fmt.pf ppf "# Fig. 10b — trimming, hash map, k <= %d slots@.@." slots;
  let cfg = { (Plan.base_cfg ~max_threads:1) with slots } in
  let entries =
    [
      ("Hyaline(trim)", "Hyaline", true);
      ("Hyaline-S(trim)", "Hyaline-S", true);
      ("Hyaline", "Hyaline", false);
      ("Hyaline-S", "Hyaline-S", false);
    ]
  in
  let plan =
    {
      Plan.name = "fig10b";
      cells =
        List.concat_map
          (fun (label, scheme, use_trim) ->
            List.map
              (fun threads ->
                Plan.cell ~label ~scale ~cfg ~use_trim
                  ~mix:Workload.write_heavy ~scheme ~structure:Registry.Hashmap
                  ~threads ())
              grid)
          entries;
    }
  in
  let series = exec ?domains ?cache ?on_progress ~x:(fun c -> c.Plan.threads) plan in
  print_throughput ppf { title = "Fig. 10b — trimming (k<=8)"; grid; series }

(* -- Table 1: scheme comparison ------------------------------------------ *)

(* Micro-costs measured on the raw scheme API, one simulated thread. *)
let micro_costs (module S : Registry.SMR) =
  let module Sched = Smr_runtime.Scheduler in
  let cfg = { (Plan.base_cfg ~max_threads:2) with batch_size = 8; slots = 4 } in
  let iters = 2_000 in
  let measure f =
    let sched = Sched.create () in
    ignore (Sched.spawn sched f);
    (match Sched.run sched with
    | Sched.All_finished -> ()
    | _ -> invalid_arg "micro_costs: did not finish");
    Sched.now sched // iters
  in
  let enter_leave =
    let t = S.create cfg in
    measure (fun () ->
        for _ = 1 to iters do
          S.leave t (S.enter t)
        done)
  in
  let deref =
    let t = S.create cfg in
    let cell = Smr_runtime.Sim_runtime.Atomic.make (Some (S.alloc t 0)) in
    measure (fun () ->
        let g = S.enter t in
        for _ = 1 to iters do
          ignore
            (S.protect t g ~idx:0
               ~read:(fun () -> Smr_runtime.Sim_runtime.Atomic.get cell)
               ~target:Smr.Smr_intf.of_option)
        done;
        S.leave t g)
  in
  let retire =
    let t = S.create cfg in
    measure (fun () ->
        let g = S.enter t in
        for _ = 1 to iters do
          S.retire t g (S.alloc t 0)
        done;
        S.leave t g)
  in
  (enter_leave, deref, retire)

(* Qualitative columns as classified by the paper's Table 1. *)
let transparency = function
  | "Hyaline" | "Hyaline-S" | "Hyaline/llsc" | "Hyaline-S/llsc" -> "Yes"
  | "Hyaline-1" | "Hyaline-1S" | "Crystalline-L" | "Crystalline-W" -> "Almost"
  | "Epoch" | "HP" | "HE" | "IBR" -> "No (retire)"
  | "Leaky" -> "n/a"
  | _ -> "?"

let table1 ppf =
  Fmt.pf ppf "# Table 1 — scheme comparison (measured costs in cost units)@.@.";
  Fmt.pf ppf "%-12s %8s %12s %12s %10s %10s@." "scheme" "robust"
    "transparent" "enter+leave" "deref" "retire";
  List.iter
    (fun (name, (module S : Registry.SMR)) ->
      let el, de, re = micro_costs (module S) in
      Fmt.pf ppf "%-12s %8s %12s %12.2f %10.2f %10.2f@." name
        (if S.robust then "yes" else "no")
        (transparency name) el de re)
    (List.filter
       (fun (n, _) -> List.mem n (Registry.bench_scheme_names))
       Registry.Sim.every_scheme);
  Fmt.pf ppf "@."

(* -- one-row-per-cell sections -------------------------------------------- *)

(* The sections below print one row per cell (or one cell per column), so
   they run uniquely labelled cells through {!exec} and read back one
   result per cell, in plan order: [None] where the cell failed, printed
   as the same [-] hole {!print_table} leaves. *)
let exec_cells ?domains ?cache ?on_progress name cells =
  let series =
    exec ?domains ?cache ?on_progress ~x:(fun _ -> 0) { Plan.name; cells }
  in
  List.map
    (fun (c : Plan.cell) ->
      Option.bind
        (List.find_opt (fun s -> String.equal s.scheme c.Plan.label) series)
        (fun s -> List.assoc_opt 0 s.points))
    cells

(* Number cells of the given (width, precision), or one hole per column. *)
let pp_cells cols ppf = function
  | Some vs -> List.iter2 (fun (w, p) v -> Fmt.pf ppf " %*.*f" w p v) cols vs
  | None -> List.iter (fun (w, _) -> Fmt.pf ppf " %*s" w "-") cols

let hashmap_cell ?cfg ?label ~scale scheme threads =
  Plan.cell ?cfg ?label ~scale ~mix:Workload.write_heavy ~scheme
    ~structure:Registry.Hashmap ~threads ()

(* One hash-map cell per scheme at [threads], as one plan. *)
let per_scheme ?domains ?cache ?on_progress name ~scale threads schemes =
  exec_cells ?domains ?cache ?on_progress name
    (List.map (fun s -> hashmap_cell ~scale s threads) schemes)

(* -- Ablations ------------------------------------------------------------ *)

let ablation ?domains ?cache ?on_progress ppf ~scale =
  Fmt.pf ppf "# Ablations (hash map, write-heavy, 9 threads)@.@.";
  let threads = 9 in
  (* One table: a (printed key, cell) per row. Unreclaimed alone cannot
     show §3.2's batch-size trade-off: a Hyaline node counts only once its
     batch seals, so a batch that never seals reads 0. The arena's
     resident-bytes high-water mark counts every node still held. *)
  let table name key rows =
    Fmt.pf ppf "%-12s %14s %14s %14s@." key "throughput" "unreclaimed"
      "resident-hwm";
    let rs = exec_cells ?domains ?cache ?on_progress name (List.map snd rows) in
    List.iter2
      (fun (k, _) r ->
        Fmt.pf ppf "%-12s%a@." k
          (pp_cells [ (14, 3); (14, 1); (14, 0) ])
          (Option.map
             (fun (r : Workload.result) ->
               [
                 r.throughput;
                 r.avg_unreclaimed;
                 float_of_int r.metrics.mem.bytes_hwm;
               ])
             r))
      rows rs;
    Fmt.pf ppf "@."
  in
  let hyaline cfg label = hashmap_cell ~cfg ~label ~scale "Hyaline" threads in
  (* Batch size sweep (§3.2: batch size plays the role of epoch frequency). *)
  Fmt.pf ppf "## Hyaline batch size (slots = 32)@.";
  table "ablation-batch" "batch"
    (List.map
       (fun batch_size ->
         ( string_of_int (max batch_size 33),
           hyaline
             { (Plan.base_cfg ~max_threads:1) with slots = 32; batch_size }
             (string_of_int batch_size) ))
       [ 16; 64; 128; 256 ]);
  (* Slot count: k = 1 is the single-list §3.1 algorithm. *)
  Fmt.pf ppf "## Hyaline slot count (batch = max(32, k+1))@.";
  table "ablation-slots" "slots"
    (List.map
       (fun slots ->
         ( string_of_int slots,
           hyaline { (Plan.base_cfg ~max_threads:1) with slots }
             (string_of_int slots) ))
       [ 1; 8; 32; 128 ]);
  (* Head implementation: dwCAS vs the Fig. 7 LL/SC model. *)
  Fmt.pf ppf "## Head implementation (slots = 32, batch = 33)@.";
  table "ablation-head" "head"
    (List.map
       (fun (label, scheme) ->
         ( label,
           hashmap_cell ~cfg:(Plan.base_cfg ~max_threads:1) ~label ~scale
             scheme threads ))
       [ ("dwcas", "Hyaline"); ("llsc", "Hyaline/llsc") ])

(* -- Atomic-operation breakdown -------------------------------------------- *)

(* How many atomic operations of each kind one data-structure operation
   costs under each scheme — the microscopic story behind every throughput
   figure. *)
let breakdown ?domains ?cache ?on_progress ppf ~scale =
  Fmt.pf ppf "# Atomic ops per hash-map operation (write-heavy, 9 threads)@.@.";
  Fmt.pf ppf "%-12s %8s %8s %8s %8s %8s %8s %8s %9s@." "scheme" "reads"
    "writes" "plain-w" "cas-ok" "cas-fail" "faa" "swap" "cost/op";
  let names = Registry.scheme_names in
  let rs = per_scheme ?domains ?cache ?on_progress "breakdown" ~scale 9 names in
  (* [Workload.run] scopes the per-class counters to the measured phase,
     so prefill and concurrent callers cannot pollute them. *)
  let per_op (r : Workload.result) =
    let c = r.op_costs in
    let per x = x // max 1 r.ops in
    [ per c.reads; per c.writes; per c.plain_writes; per c.cas_ok;
      per c.cas_fail; per c.faas; per c.swaps;
      per (Smr_runtime.Sim_cell.total_cost c) ]
  in
  List.iter2
    (fun name r ->
      Fmt.pf ppf "%-12s%a@." name
        (pp_cells (List.init 7 (fun _ -> (8, 2)) @ [ (9, 1) ]))
        (Option.map per_op r))
    names rs;
  Fmt.pf ppf "@."

(* -- Scheme-internal metrics ----------------------------------------------- *)

(* The scheme-specific series from [Smr.Metrics]: why a scheme behaves the
   way it does — batches sealed and CAS retries for Hyaline, scan counts
   for the pointer/era schemes, epoch advances for EBR. *)
let metrics ?domains ?cache ?on_progress ppf ~scale =
  Fmt.pf ppf "# Scheme metrics (hash map, write-heavy, 9 threads)@.@.";
  let names = Registry.scheme_names in
  let rs = per_scheme ?domains ?cache ?on_progress "metrics" ~scale 9 names in
  List.iter2
    (fun name -> function
      | Some (r : Workload.result) -> Fmt.pf ppf "%a@." Smr.Metrics.pp r.metrics
      | None -> Fmt.pf ppf "%s: -@." name)
    names rs;
  Fmt.pf ppf "@."

(* -- Cost-model sensitivity ------------------------------------------------ *)

(* The figure shapes should not be an artefact of the exact atomic-op
   prices. Sweep the CAS/fenced-store price from optimistic to
   pessimistic and show the scheme ordering on the hash map is stable.
   The cost model is part of every cell's cache key, so the three models
   cache independently. *)
let sensitivity ?domains ?cache ?on_progress ppf ~scale =
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
            per_scheme ?domains ?cache ?on_progress "sensitivity" ~scale 36
              schemes
          in
          Fmt.pf ppf "%-20s" mname;
          List.iter
            (fun r ->
              pp_cells [ (12, 3) ] ppf
                (Option.map (fun (r : Workload.result) -> [ r.throughput ]) r))
            rs;
          Fmt.pf ppf "@.")
        models);
  Fmt.pf ppf "@."
