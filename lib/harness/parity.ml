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

    The [figures.exe parity] driver ({!Scenario.parity}) runs only that
    ladder (watchdog-guarded, so a livelocked scheme becomes a failed
    rep, not a hung CI job) and emits [BENCH_native.json], the native
    counterpart of the simulated BENCH reports. A ladder scheme that
    fails on either runtime keeps its error and fails {!coverage}. Native
    nanoseconds per primitive come from one ledger, [benchmark/bench.exe
    --trace 1]'s [smr.*_ns.<S>] metrics, not from here.

    What parity does {e not} prove: absolute magnitudes (cost units are
    not nanoseconds), scalability curves (the container may have one
    core), or memory-model correctness (that is [test_native]'s and the
    explorer's job). It proves the simulator's comparative story survives
    contact with real atomics. *)

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
  s_failed : (string * string) list;
      (** ladder schemes with no row, each with the error that dropped it *)
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

let structure_parity ?(failed = []) ~structure rows =
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
    s_failed = failed;
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
let ladder_schemes = Registry.scheme_names
let ladder_structures = [ Registry.Hashmap; Registry.List_set ]

(* The sim side's result for one ladder cell, or why there is none. *)
let sim_result (summary : Executor.summary) structure scheme =
  match
    List.find_opt
      (fun (r : Executor.row) ->
        String.equal r.Executor.cell.Plan.scheme scheme
        && r.Executor.cell.Plan.structure = structure)
      summary.Executor.rows
  with
  | Some { Executor.outcome = Executor.Done res; _ } -> Ok res
  | Some { Executor.outcome = Executor.Failed msg; _ } -> Error ("sim: " ^ msg)
  | None -> Error "sim: no row"

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
  let spec =
    { Native_workload.default_spec with threads; ops_per_thread }
  in
  (* A scheme's row, or the first error that kept it out of the ladder:
     the sim cell's, else the native reps' when none of them succeeded. *)
  let measure structure scheme =
    match sim_result summary structure scheme with
    | Error _ as e -> e
    | Ok sim -> (
        let runs =
          List.init reps (fun rep ->
              Native_workload.run_guarded ~timeout_s ~scheme ~structure
                { spec with Native_workload.seed = spec.seed + rep })
        in
        match List.filter_map Result.to_option runs with
        | [] ->
            Error
              (match runs with
              | Error msg :: _ -> "native: " ^ msg
              | _ -> "native: no reps")
        | oks ->
            Ok
              {
                r_scheme = scheme;
                r_sim_tput = sim.Workload.throughput;
                r_native_ops_s =
                  median
                    (List.map
                       (fun (r : Native_workload.result) ->
                         r.Native_workload.ops_per_sec)
                       oks);
                r_sim_peak = sim.Workload.metrics.Smr.Metrics.peak_unreclaimed;
                r_native_peak =
                  List.fold_left
                    (fun acc (r : Native_workload.result) ->
                      max acc
                        r.Native_workload.metrics.Smr.Metrics.peak_unreclaimed)
                    0 oks;
              })
  in
  let ordering =
    List.map
      (fun structure ->
        let rows, failed =
          List.partition_map
            (fun scheme ->
              match measure structure scheme with
              | Ok row -> Either.Left row
              | Error msg -> Either.Right (scheme, msg))
            ladder_schemes
        in
        structure_parity ~failed ~structure rows)
      ladder_structures
  in
  (ordering, summary.Executor.stats)

(* -- the parity scenario ------------------------------------------------- *)

type report = { p_domains : int; p_ordering : structure_parity list }

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

(* The BENCH_native.json body; the envelope adds the verdict. *)
let body (p : report) =
  Json.Obj
    [
      ("name", Json.String "native");
      ("paper", Json.String "Hyaline (PODC 2019)");
      ("domains", Json.Int p.p_domains);
      ( "ordering",
        Json.List (List.map structure_parity_to_json p.p_ordering) );
    ]

(* No scheme silently dropped: every ladder scheme on every ladder
   structure has a row, i.e. a simulated result and at least one
   successful native rep. A missing pair is named with its error, when
   {!measure_ladder} recorded one. *)
let coverage (ordering : structure_parity list) =
  let missing =
    List.concat_map
      (fun structure ->
        let rows, failed =
          match List.find_opt (fun s -> s.s_structure = structure) ordering with
          | Some s -> (s.s_rows, s.s_failed)
          | None -> ([], [])
        in
        List.filter_map
          (fun scheme ->
            if List.exists (fun r -> String.equal r.r_scheme scheme) rows then
              None
            else
              let pair = Registry.structure_name structure ^ ": " ^ scheme in
              Some
                (match List.assoc_opt scheme failed with
                | Some msg -> Printf.sprintf "%s (%s)" pair msg
                | None -> pair))
          ladder_schemes)
      ladder_structures
  in
  ( "coverage",
    missing = [],
    if missing = [] then
      Printf.sprintf "all %d schemes x %d structures measured on sim and native"
        (List.length ladder_schemes)
        (List.length ladder_structures)
    else "missing: " ^ String.concat ", " missing )

let judge_report p =
  let v = judge p.p_ordering in
  Verdict.of_checks (v.Verdict.checks @ [ coverage p.p_ordering ])

(* The pinned ordering ladder: sim (cached, executor) vs native medians. *)
let collect ?cache ?on_progress ~domains ~scale () =
  (* Ladder cells must run long enough that scheme overhead, not
     scheduler jitter, decides the throughput ranks — short runs measure
     noise and the tau bar exists to catch real inversions, not that. *)
  let ops_per_thread, reps =
    match (scale : Plan.scale) with
    | Plan.Quick -> (10_000, 3)
    | Plan.Full -> (40_000, 5)
  in
  let p_ordering, stats =
    measure_ladder ?cache ?on_progress ~scale ~threads:domains ~ops_per_thread
      ~reps ~timeout_s:120.0 ()
  in
  ({ p_domains = domains; p_ordering }, stats)

let print ppf p =
  Fmt.pf ppf
    "# Native parity — %d worker domain(s), %d schemes x %d structures@."
    p.p_domains
    (List.length ladder_schemes)
    (List.length ladder_structures);
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
    p.p_ordering
