(** Sim-vs-native cross-validation: does the {e relative ordering} of
    schemes measured on real domains agree with the simulator?

    The paper's claims are comparative — Hyaline vs. EBR/HP/IBR orderings
    under contention — and the simulator reproduces them in cost units.
    This module re-measures a pinned scheme ladder on the native runtime
    (true parallelism, wall-clock) and checks two rank agreements:

    - {b throughput rank}: for every scheme pair the simulator separates
      by a clear margin ([sep_ratio]), the native runtime must order the
      pair the same way (the native side takes the median of several
      repetitions first). Kendall's tau over the full ranking is computed
      per structure and only its mean must be positive: pairs inside the
      noise band cannot flip the verdict, because on a busy single-core
      CI box their wall-clock ranks are coin flips.
    - {b peak-unreclaimed rank}: the no-reclamation [Leaky] baseline must
      top the peak-unreclaimed ranking on {e both} runtimes — the
      count-based half of the verdict, robust to timing noise.

    The [figures.exe parity] driver ({!Scenario.parity}) also runs the
    {e full} scheme × structure registry matrix natively (watchdog-guarded,
    so a livelocked scheme becomes a [timeout] row, not a hung CI job) and
    emits [BENCH_native.json], the native counterpart of the simulated
    BENCH reports.

    What parity does {e not} prove: absolute magnitudes (cost units are
    not nanoseconds), scalability curves (the container may have one
    core), or memory-model correctness (that is [test_native]'s and the
    explorer's job). It proves the simulator's comparative story survives
    contact with real atomics. *)

module Native = Smr_runtime.Native_runtime

(* -- the native matrix ---------------------------------------------------- *)

type ncell = {
  n_scheme : string;
  n_structure : Registry.structure;
  n_domains : int;
}

type nrow = {
  n_cell : ncell;
  n_outcome : (Native_workload.result, string) result;
}

let spec_for ~domains ~ops_per_thread =
  {
    Native_workload.default_spec with
    Native_workload.threads = domains;
    ops_per_thread;
  }

(* Every scheme x every structure (supported pairs), watchdog-guarded. *)
let matrix ?(domains = 2) ?(ops_per_thread = 300) ?(timeout_s = 120.0) () :
    nrow list =
  let spec = spec_for ~domains ~ops_per_thread in
  List.concat_map
    (fun structure ->
      List.filter_map
        (fun name ->
          if not (Registry.supported structure name) then None
          else
            Some
              {
                n_cell = { n_scheme = name; n_structure = structure;
                           n_domains = domains };
                n_outcome =
                  Native_workload.run_guarded ~timeout_s ~scheme:name
                    ~structure spec;
              })
        Registry.every_scheme_name)
    Registry.structures

(* -- rank agreement ------------------------------------------------------- *)

(* Kendall's tau-a over two paired score lists: +1 = identical order,
   -1 = reversed, 0 = unrelated. Ties contribute nothing. *)
let kendall_tau (xs : float list) (ys : float list) =
  let xs = Array.of_list xs and ys = Array.of_list ys in
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let s = ref 0 in
    for i = 0 to n - 2 do
      for j = i + 1 to n - 1 do
        let a = compare xs.(i) xs.(j) and b = compare ys.(i) ys.(j) in
        if a * b > 0 then incr s else if a * b < 0 then decr s
      done
    done;
    float_of_int !s /. float_of_int (n * (n - 1) / 2)
  end

(** One scheme's paired measurements on one structure. *)
type pair_row = {
  r_scheme : string;
  r_sim_tput : float;  (** ops per 1000 simulated cost units *)
  r_native_ops_s : float;  (** median native ops/sec *)
  r_sim_peak : int;  (** simulated lifetime peak unreclaimed *)
  r_native_peak : int;  (** native lifetime peak unreclaimed *)
}

type structure_parity = {
  s_structure : Registry.structure;
  s_rows : pair_row list;
  s_tau : float;  (** throughput-rank correlation, all pairs *)
  s_sep_total : int;  (** pairs the simulator separates by >= {!sep_ratio} *)
  s_sep_agree : int;  (** of those, pairs whose native order agrees *)
  s_peak_ok : bool;  (** Leaky tops peak-unreclaimed on both runtimes *)
}

(* The gating metric is concordance over SEPARATED pairs: where the
   simulator claims a >= 1.25x throughput gap, the native runtime must
   order the pair the same way. Those gaps are the paper's comparative
   claims; pairs inside the noise band (schemes within ~25% of each
   other) are reported via tau but cannot flip the verdict — on a busy
   single-core CI box their wall-clock ranks are coin flips. *)
let sep_ratio = 1.25
let conc_threshold = 0.75

let concordance rows =
  let arr = Array.of_list rows in
  let total = ref 0 and agree = ref 0 in
  for i = 0 to Array.length arr - 2 do
    for j = i + 1 to Array.length arr - 1 do
      let a = arr.(i) and b = arr.(j) in
      let hi, lo = if a.r_sim_tput >= b.r_sim_tput then (a, b) else (b, a) in
      if lo.r_sim_tput > 0.0 && hi.r_sim_tput /. lo.r_sim_tput >= sep_ratio
      then begin
        incr total;
        if hi.r_native_ops_s > lo.r_native_ops_s then incr agree
      end
    done
  done;
  (!total, !agree)

let peak_ok_of rows =
  match List.find_opt (fun r -> String.equal r.r_scheme "Leaky") rows with
  | None -> false
  | Some leaky ->
      List.for_all
        (fun r ->
          String.equal r.r_scheme "Leaky"
          || (leaky.r_sim_peak >= r.r_sim_peak
             && leaky.r_native_peak >= r.r_native_peak))
        rows

let structure_parity ~structure rows =
  let sep_total, sep_agree = concordance rows in
  {
    s_structure = structure;
    s_rows = rows;
    s_tau =
      kendall_tau
        (List.map (fun r -> r.r_sim_tput) rows)
        (List.map (fun r -> r.r_native_ops_s) rows);
    s_sep_total = sep_total;
    s_sep_agree = sep_agree;
    s_peak_ok = peak_ok_of rows;
  }

let judge (structures : structure_parity list) : Verdict.t =
  let n = max 1 (List.length structures) in
  let mean_tau =
    List.fold_left (fun a s -> a +. s.s_tau) 0.0 structures /. float_of_int n
  in
  let sep_total =
    List.fold_left (fun a s -> a + s.s_sep_total) 0 structures
  in
  let sep_agree =
    List.fold_left (fun a s -> a + s.s_sep_agree) 0 structures
  in
  let schemes =
    match structures with s :: _ -> List.length s.s_rows | [] -> 0
  in
  Verdict.of_checks
    [
      ( "peak_rank",
        structures <> [] && List.for_all (fun s -> s.s_peak_ok) structures,
        "Leaky tops peak-unreclaimed on sim and native in every structure" );
      ( "concordance",
        sep_total > 0
        && float_of_int sep_agree /. float_of_int sep_total >= conc_threshold,
        Printf.sprintf "%d/%d separated pairs ordered alike (need >= %.2f)"
          sep_agree sep_total conc_threshold );
      ( "mean_tau",
        mean_tau > 0.0,
        Printf.sprintf "mean tau %.2f > 0 over %d structures x %d schemes"
          mean_tau (List.length structures) schemes );
    ]

(* -- measuring the pinned ladder ------------------------------------------ *)

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted -> List.nth sorted (List.length sorted / 2)

(** The pinned comparison ladder: the paper-figure scheme set on the two
    structures whose sim-side orderings are the most stable. *)
let ladder_schemes = Registry.scheme_names Registry.X86
let ladder_structures = [ Registry.Hashmap; Registry.List_set ]

let measure_ladder ?cache ?on_progress ~scale ~threads ~ops_per_thread ~reps
    ~timeout_s () : structure_parity list * Executor.stats =
  (* Sim side: one plan through the executor, so results cache like any
     other sweep. *)
  let plan =
    {
      Plan.name = "parity";
      cells =
        List.concat_map
          (fun structure ->
            List.map
              (fun scheme ->
                Plan.cell ~scale ~mix:Workload.write_heavy ~scheme ~structure
                  ~threads ())
              ladder_schemes)
          ladder_structures;
    }
  in
  let summary = Executor.run ?cache ?on_progress plan in
  let sim_result structure scheme =
    List.find_map
      (fun (r : Executor.row) ->
        if
          String.equal r.Executor.cell.Plan.scheme scheme
          && r.Executor.cell.Plan.structure = structure
        then
          match r.Executor.outcome with
          | Executor.Done res -> Some res
          | Executor.Failed _ -> None
        else None)
      summary.Executor.rows
  in
  let ordering =
    List.map
      (fun structure ->
        let rows =
          List.filter_map
            (fun scheme ->
              match sim_result structure scheme with
              | None -> None
              | Some sim -> (
                  let spec =
                    {
                      (spec_for ~domains:threads ~ops_per_thread) with
                      Native_workload.seed = 42;
                    }
                  in
                  let runs =
                    List.init reps (fun rep ->
                        Native_workload.run_guarded ~timeout_s ~scheme
                          ~structure
                          { spec with Native_workload.seed = 42 + rep })
                  in
                  match List.filter_map Result.to_option runs with
                  | [] -> None
                  | oks ->
                      Some
                        {
                          r_scheme = scheme;
                          r_sim_tput = sim.Workload.throughput;
                          r_native_ops_s =
                            median
                              (List.map
                                 (fun (r : Native_workload.result) ->
                                   r.Native_workload.ops_per_sec)
                                 oks);
                          r_sim_peak =
                            sim.Workload.metrics.Smr.Metrics.peak_unreclaimed;
                          r_native_peak =
                            List.fold_left
                              (fun acc (r : Native_workload.result) ->
                                max acc
                                  r.Native_workload.metrics
                                    .Smr.Metrics.peak_unreclaimed)
                              0 oks;
                        }))
            ladder_schemes
        in
        structure_parity ~structure rows)
      ladder_structures
  in
  (ordering, summary.Executor.stats)

(* -- native micro-benchmarks (Bechamel-style ns/call) --------------------- *)

type micro = {
  m_scheme : string;
  m_enter_leave_ns : float;
  m_protect_ns : float;
  m_retire_ns : float;
}

(* Warmup then batch until the time quota, like Bechamel's monotonic-clock
   runs, without pulling the library into the harness: ns/call medians
   land in BENCH_native.json so sim-vs-native drift is visible per PR. *)
let measure_ns ?(quota_s = 0.01) f =
  for _ = 1 to 64 do
    f ()
  done;
  let t0 = Unix.gettimeofday () in
  let calls = ref 0 in
  while Unix.gettimeofday () -. t0 < quota_s do
    for _ = 1 to 256 do
      f ()
    done;
    calls := !calls + 256
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int !calls *. 1e9

let micro_cfg =
  {
    Smr.Smr_intf.default_config with
    max_threads = 8;
    slots = 8;
    batch_size = 32;
  }

let micro_all ?quota_s () : micro list =
  Native.set_self 0;
  List.map
    (fun (name, (module S : Registry.SMR)) ->
      let t = S.create micro_cfg in
      ignore (S.register ~tid:0 t);
      let cell = Native.Atomic.make (Some (S.alloc t 0)) in
      let enter_leave = measure_ns ?quota_s (fun () -> S.leave t (S.enter t)) in
      let protect =
        let g = S.enter t in
        let ns =
          measure_ns ?quota_s (fun () ->
              ignore
                (S.protect t g ~idx:0
                   ~read:(fun () -> Native.Atomic.get cell)
                   ~target:Smr.Smr_intf.of_option))
        in
        S.leave t g;
        ns
      in
      let retire =
        let g = S.enter t in
        let ns =
          measure_ns ?quota_s (fun () -> S.retire t g (S.alloc t 0))
        in
        S.leave t g;
        S.flush t;
        ns
      in
      {
        m_scheme = name;
        m_enter_leave_ns = enter_leave;
        m_protect_ns = protect;
        m_retire_ns = retire;
      })
    Registry.Native.every_scheme

(* -- the parity scenario ------------------------------------------------- *)

type report = {
  p_domains : int;
  p_matrix : nrow list;
  p_ordering : structure_parity list;
  p_micro : micro list;
}

let nrow_to_json (r : nrow) =
  Json.Obj
    ([
       ("scheme", Json.String r.n_cell.n_scheme);
       ("structure",
        Json.String (Registry.structure_name r.n_cell.n_structure));
       ("domains", Json.Int r.n_cell.n_domains);
     ]
    @
    match r.n_outcome with
    | Ok res -> [ ("result", Native_workload.result_to_json res) ]
    | Error msg -> [ ("error", Json.String msg) ])

let pair_row_to_json r =
  Json.Obj
    [
      ("scheme", Json.String r.r_scheme);
      ("sim_throughput", Json.Float r.r_sim_tput);
      ("native_ops_per_sec", Json.Float r.r_native_ops_s);
      ("sim_peak_unreclaimed", Json.Int r.r_sim_peak);
      ("native_peak_unreclaimed", Json.Int r.r_native_peak);
    ]

let structure_parity_to_json s =
  Json.Obj
    [
      ("structure", Json.String (Registry.structure_name s.s_structure));
      ("tau", Json.Float s.s_tau);
      ("separated_pairs", Json.Int s.s_sep_total);
      ("separated_agree", Json.Int s.s_sep_agree);
      ("peak_ok", Json.Bool s.s_peak_ok);
      ("rows", Json.List (List.map pair_row_to_json s.s_rows));
    ]

let micro_to_json m =
  Json.Obj
    [
      ("scheme", Json.String m.m_scheme);
      ("enter_leave_ns", Json.Float m.m_enter_leave_ns);
      ("protect_ns", Json.Float m.m_protect_ns);
      ("retire_ns", Json.Float m.m_retire_ns);
    ]

(* The BENCH_native.json body; the envelope adds the verdict. *)
let body (p : report) =
  Json.Obj
    [
      ("name", Json.String "native");
      ("paper", Json.String "Hyaline (PODC 2019)");
      ("domains", Json.Int p.p_domains);
      ("matrix", Json.List (List.map nrow_to_json p.p_matrix));
      ( "ordering",
        Json.List (List.map structure_parity_to_json p.p_ordering) );
      ("micro", Json.List (List.map micro_to_json p.p_micro));
    ]

(* Structural completeness: every canonical scheme must appear in the
   micro section and in the matrix for every structure that supports it
   — the same "no scheme silently dropped" bar {!Scenario.micro}'s
   coverage check sets. *)
let coverage (p : report) =
  let has_micro name =
    List.exists (fun m -> String.equal m.m_scheme name) p.p_micro
  in
  let has_matrix name structure =
    List.exists
      (fun r ->
        String.equal r.n_cell.n_scheme name
        && r.n_cell.n_structure = structure)
      p.p_matrix
  in
  let missing =
    List.concat_map
      (fun name ->
        (if has_micro name then [] else [ "micro:" ^ name ])
        @ List.filter_map
            (fun structure ->
              if
                Registry.supported structure name
                && not (has_matrix name structure)
              then
                Some
                  (Printf.sprintf "matrix:%s/%s" name
                     (Registry.structure_name structure))
              else None)
            Registry.structures)
      Registry.every_scheme_name
    @ if p.p_ordering = [] then [ "ordering" ] else []
  in
  ( "coverage",
    missing = [],
    if missing = [] then "every scheme in the matrix, ladder and micro sections"
    else "missing entries: " ^ String.concat ", " missing )

let judge_report p =
  let v = judge p.p_ordering in
  Verdict.of_checks (v.Verdict.checks @ [ coverage p ])

(* 1. the full registry matrix on real domains, watchdog-guarded; 2. the
   pinned ordering ladder, sim (cached, executor) vs native medians; 3.
   micro-benchmarks for the drift record. *)
let collect ?cache ?on_progress ~domains ~reps ~scale () =
  (* Ladder cells must run long enough that scheme overhead, not
     scheduler jitter, decides the throughput ranks — short runs measure
     noise and the tau bar exists to catch real inversions, not that. *)
  let matrix_ops, ladder_ops, quota_s =
    match (scale : Plan.scale) with
    | Plan.Quick -> (300, 10_000, 0.01)
    | Plan.Full -> (2_000, 40_000, 0.05)
  in
  let p_matrix = matrix ~domains ~ops_per_thread:matrix_ops () in
  let p_ordering, stats =
    measure_ladder ?cache ?on_progress ~scale ~threads:domains
      ~ops_per_thread:ladder_ops ~reps ~timeout_s:120.0 ()
  in
  let p_micro = micro_all ~quota_s () in
  ({ p_domains = domains; p_matrix; p_ordering; p_micro }, stats)

let print ppf p =
  let ok_n =
    List.length (List.filter (fun r -> Result.is_ok r.n_outcome) p.p_matrix)
  in
  Fmt.pf ppf
    "# Native parity — %d worker domain(s), %d schemes x %d structures@.@."
    p.p_domains
    (List.length Registry.Native.every_scheme)
    (List.length Registry.structures);
  Fmt.pf ppf "native matrix: %d supported cells, %d ok, %d failed@."
    (List.length p.p_matrix) ok_n
    (List.length p.p_matrix - ok_n);
  List.iter
    (fun r ->
      match r.n_outcome with
      | Ok _ -> ()
      | Error msg ->
          Fmt.pf ppf "  FAIL %s/%s: %s@." r.n_cell.n_scheme
            (Registry.structure_name r.n_cell.n_structure)
            msg)
    p.p_matrix;
  List.iter
    (fun s ->
      Fmt.pf ppf "@.## %s — sim vs native@."
        (Registry.ds_name s.s_structure);
      Fmt.pf ppf "%-14s %14s %14s %10s %10s@." "scheme" "sim-tput"
        "native-ops/s" "sim-peak" "nat-peak";
      List.iter
        (fun r ->
          Fmt.pf ppf "%-14s %14.3f %14.0f %10d %10d@." r.r_scheme
            r.r_sim_tput r.r_native_ops_s r.r_sim_peak r.r_native_peak)
        s.s_rows;
      Fmt.pf ppf "tau=%.2f separated-pairs=%d/%d peak_ok=%b@." s.s_tau
        s.s_sep_agree s.s_sep_total s.s_peak_ok)
    p.p_ordering;
  Fmt.pf ppf "@.## native micro (ns/call)@.";
  Fmt.pf ppf "%-16s %12s %12s %12s@." "scheme" "enter+leave" "protect"
    "alloc+retire";
  List.iter
    (fun m ->
      Fmt.pf ppf "%-16s %12.1f %12.1f %12.1f@." m.m_scheme
        m.m_enter_leave_ns m.m_protect_ns m.m_retire_ns)
    p.p_micro
