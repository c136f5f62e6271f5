(** The experiment engine: plan cell hashing, the on-disk result cache,
    resume-after-interrupt semantics (a warm rerun simulates nothing and
    reproduces identical results), and per-cell fault isolation (a
    raising cell becomes a failure row, not an aborted sweep). *)

module Plan = Smr_harness.Plan
module Executor = Smr_harness.Executor
module Registry = Smr_harness.Registry
module Json = Smr_harness.Json
module Cell = Smr_runtime.Sim_cell

(* A cheap cell: tiny budget, small prefill, two threads on the list. *)
let tiny ?(scheme = "Epoch") ?(threads = 2) ?(prefill = 8) ?label () =
  Plan.cell ?label ~scheme ~structure:Registry.List_set ~threads ~prefill
    ~budget:2_000 ()

let with_tmp_dir f =
  let dir = Filename.temp_file "hyaline_cache" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name -> Sys.remove (Filename.concat dir name))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* -- cell hashing --------------------------------------------------------- *)

let test_hash_stability () =
  let c = tiny () in
  Alcotest.(check string) "hash is deterministic" (Plan.cell_hash c)
    (Plan.cell_hash (tiny ()));
  Alcotest.(check string)
    "label is presentation-only — not part of the hash" (Plan.cell_hash c)
    (Plan.cell_hash (tiny ~label:"renamed" ()));
  Alcotest.(check bool)
    "thread count changes the hash" false
    (String.equal (Plan.cell_hash c) (Plan.cell_hash (tiny ~threads:3 ())));
  Alcotest.(check bool)
    "scheme changes the hash" false
    (String.equal (Plan.cell_hash c) (Plan.cell_hash (tiny ~scheme:"HP" ())));
  (* The mutable cost model is a simulation input (the sensitivity sweep
     ablates it), so it must be part of the identity too. *)
  let saved = Cell.current_costs () in
  let default_hash = Plan.cell_hash c in
  Fun.protect
    ~finally:(fun () -> Cell.set_costs saved)
    (fun () ->
      Cell.set_costs { saved with Cell.cas = saved.Cell.cas + 1 };
      Alcotest.(check bool)
        "cost model changes the hash" false
        (String.equal default_hash (Plan.cell_hash c)))

(* -- cache round trip ----------------------------------------------------- *)

let test_cache_round_trip () =
  (* Serialization is a lossless inverse pair, the optional churn section
     included... *)
  let churned =
    Plan.cell
      ~churn:{ Smr_harness.Workload.sessions = 24; session_ops = 2; lanes = 4 }
      ~budget:100_000 ~seed:5 ~scheme:"Epoch" ~structure:Registry.Hashmap
      ~threads:2 ()
  in
  let identity what cell =
    let r = Executor.run_cell_exn cell in
    let j = Executor.result_to_json r in
    Alcotest.(check string)
      (what ^ ": result_to_json . result_of_json is the identity")
      (Json.to_string j)
      (Json.to_string (Executor.result_to_json (Executor.result_of_json j)));
    r
  in
  ignore (identity "static" (tiny ()));
  Alcotest.(check bool)
    "the churn cell carries a churn section" true
    ((identity "churn" churned).Smr_harness.Workload.churn <> None);
  (* ... and the cache file write/read path preserves it bit for bit. *)
  with_tmp_dir (fun dir ->
      let plan = { Plan.name = "round-trip"; cells = [ tiny () ] } in
      let cold = Executor.run ~cache:dir plan in
      let warm = Executor.run ~cache:dir plan in
      let result s =
        match (List.hd s.Executor.rows).Executor.outcome with
        | Executor.Done r -> Json.to_string (Executor.result_to_json r)
        | Executor.Failed m -> Alcotest.fail m
      in
      Alcotest.(check int) "cold run executes" 1 cold.Executor.stats.executed;
      Alcotest.(check bool)
        "warm row is marked from_cache" true
        (List.hd warm.Executor.rows).Executor.from_cache;
      Alcotest.(check string)
        "cached result is byte-identical" (result cold) (result warm))

(* -- resume after interrupt ----------------------------------------------- *)

let test_resume_executes_nothing () =
  with_tmp_dir (fun dir ->
      let plan =
        {
          Plan.name = "resume";
          cells =
            [ tiny (); tiny ~threads:3 (); tiny ~scheme:"Hyaline" () ];
        }
      in
      let cold = Executor.run ~cache:dir plan in
      Alcotest.(check int) "cold: all executed" 3 cold.Executor.stats.executed;
      (* The warm rerun must do no simulated work at all: the global
         atomic-op counters cannot move if no cell runs. *)
      let before = Cell.snapshot_counts () in
      let warm = Executor.run ~cache:dir plan in
      let after = Cell.snapshot_counts () in
      Alcotest.(check int) "warm: zero cells executed" 0
        warm.Executor.stats.executed;
      Alcotest.(check int) "warm: every cell a cache hit" 3
        warm.Executor.stats.cache_hits;
      Alcotest.(check bool) "warm: zero simulated steps" true (before = after);
      (* A plan edit invalidates exactly the edited cell. *)
      let edited =
        { plan with Plan.cells = tiny ~threads:4 () :: plan.Plan.cells }
      in
      let partial = Executor.run ~cache:dir edited in
      Alcotest.(check int) "edited plan: one new cell executed" 1
        partial.Executor.stats.executed;
      Alcotest.(check int) "edited plan: rest from cache" 3
        partial.Executor.stats.cache_hits)

(* -- fault isolation ------------------------------------------------------ *)

let test_failure_row () =
  with_tmp_dir (fun dir ->
      (* The middle cell is invalid (prefill > key range makes
         Workload.run raise); the sweep must record it and carry on. *)
      let bad = tiny ~prefill:100_000 ~label:"bad" () in
      let plan =
        { Plan.name = "faults"; cells = [ tiny (); bad; tiny ~threads:3 () ] }
      in
      let s = Executor.run ~cache:dir plan in
      Alcotest.(check int) "all rows present" 3 (List.length s.Executor.rows);
      Alcotest.(check int) "one failure" 1 s.Executor.stats.failed;
      (match (List.nth s.Executor.rows 1).Executor.outcome with
      | Executor.Failed msg ->
          Alcotest.(check bool)
            ("failure names the exception: " ^ msg)
            true
            (String.length msg > 0)
      | Executor.Done _ -> Alcotest.fail "invalid cell reported success");
      List.iteri
        (fun i (row : Executor.row) ->
          if i <> 1 then
            match row.Executor.outcome with
            | Executor.Done _ -> ()
            | Executor.Failed m ->
                Alcotest.fail ("healthy cell failed too: " ^ m))
        s.Executor.rows;
      (* Failures are never cached: a rerun retries the bad cell and
         replays the good ones. *)
      let again = Executor.run ~cache:dir plan in
      Alcotest.(check int) "rerun retries only the failed cell" 1
        again.Executor.stats.executed;
      Alcotest.(check int) "rerun replays the healthy cells" 2
        again.Executor.stats.cache_hits;
      (* And run_cell_exn surfaces the same failure as an exception. *)
      match Executor.run_cell_exn bad with
      | _ -> Alcotest.fail "run_cell_exn did not raise"
      | exception Failure _ -> ())

(* -- parallel determinism -------------------------------------------------

   The [~domains] contract: fan-out is an implementation detail. Rows
   (order and content), failure rows, stats and cache files must be
   byte-identical to a sequential run — here checked by serializing
   whole summaries and diffing cache directories file by file. *)

let row_fingerprint (r : Executor.row) =
  let body =
    match r.Executor.outcome with
    | Executor.Done res -> Json.to_string (Executor.result_to_json res)
    | Executor.Failed msg -> "FAILED " ^ msg
  in
  Printf.sprintf "%s|%s|%b|%s" r.Executor.cell.Plan.label r.Executor.hash
    r.Executor.from_cache body

let summary_fingerprint (s : Executor.summary) =
  String.concat "\n" (List.map row_fingerprint s.Executor.rows)

(* Several schemes, a thread-count spread, and one failing cell, so the
   parallel path is exercised across outcome kinds. *)
let mixed_plan () =
  {
    Plan.name = "parallel";
    cells =
      [
        tiny ();
        tiny ~threads:3 ();
        tiny ~scheme:"Hyaline" ();
        tiny ~scheme:"HP" ();
        tiny ~prefill:100_000 ~label:"bad" ();
        tiny ~scheme:"Hyaline-S" ~threads:3 ();
      ];
  }

let cache_snapshot dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun name ->
         ( name,
           In_channel.with_open_bin (Filename.concat dir name)
             In_channel.input_all ))

(* The fingerprints cover every result field; the per-row checks name
   the two a cell charges through its domain context: a cell's structure
   is built and simulated on the worker domain that claims it, and its
   op-class counts and clock must be those of the sequential run. *)
let test_parallel_rows_identical () =
  let plan = mixed_plan () in
  let seq = Executor.run plan in
  let par = Executor.run ~domains:8 plan in
  List.iter2
    (fun (s : Executor.row) (p : Executor.row) ->
      match (s.Executor.outcome, p.Executor.outcome) with
      | Executor.Done a, Executor.Done b ->
          let label = s.Executor.cell.Plan.label in
          let charged (r : Smr_harness.Workload.result) =
            let c = r.Smr_harness.Workload.op_costs in
            Test_support.classes c @ [ Cell.total_cost c ]
          in
          Alcotest.(check bool)
            (label ^ ": charged some operations") true
            (Cell.total_cost a.Smr_harness.Workload.op_costs > 0);
          Alcotest.(check (list int))
            (label ^ ": worker-domain op counts and cost")
            (charged a) (charged b);
          Alcotest.(check int)
            (label ^ ": worker-domain clock")
            a.Smr_harness.Workload.steps b.Smr_harness.Workload.steps
      | Executor.Failed _, Executor.Failed _ -> ()
      | _ -> Alcotest.fail "a cell's outcome differs at 8 domains")
    seq.Executor.rows par.Executor.rows;
  Alcotest.(check string)
    "rows byte-identical at 8 domains" (summary_fingerprint seq)
    (summary_fingerprint par);
  Alcotest.(check int)
    "same failure count" seq.Executor.stats.failed par.Executor.stats.failed;
  Alcotest.(check int)
    "same executed count" seq.Executor.stats.executed
    par.Executor.stats.executed

let test_parallel_cache_identical () =
  let plan = mixed_plan () in
  with_tmp_dir (fun seq_dir ->
      with_tmp_dir (fun par_dir ->
          let seq = Executor.run ~cache:seq_dir plan in
          let par = Executor.run ~domains:8 ~cache:par_dir plan in
          Alcotest.(check string)
            "cached rows byte-identical" (summary_fingerprint seq)
            (summary_fingerprint par);
          let a = cache_snapshot seq_dir and b = cache_snapshot par_dir in
          Alcotest.(check int)
            "same cache file set" (List.length a) (List.length b);
          List.iter2
            (fun (na, ca) (nb, cb) ->
              Alcotest.(check string) "same cache file name" na nb;
              Alcotest.(check string) ("cache file " ^ na) ca cb)
            a b))

let test_parallel_resume_executes_nothing () =
  with_tmp_dir (fun dir ->
      let plan =
        {
          Plan.name = "parallel-resume";
          cells = [ tiny (); tiny ~threads:3 (); tiny ~scheme:"Hyaline" () ];
        }
      in
      let cold = Executor.run ~domains:4 ~cache:dir plan in
      Alcotest.(check int) "cold parallel run executes all" 3
        cold.Executor.stats.executed;
      (* Warm parallel rerun: pure cache replay, no simulation at all. *)
      let before = Cell.snapshot_counts () in
      let warm = Executor.run ~domains:4 ~cache:dir plan in
      let after = Cell.snapshot_counts () in
      Alcotest.(check int) "warm parallel: zero executed" 0
        warm.Executor.stats.executed;
      Alcotest.(check int) "warm parallel: all cache hits" 3
        warm.Executor.stats.cache_hits;
      Alcotest.(check bool)
        "warm parallel: zero simulated steps" true (before = after);
      (* The cache is shared property, not a per-mode artifact: a
         sequential rerun replays the parallel run's files too. *)
      let seq = Executor.run ~cache:dir plan in
      Alcotest.(check int) "sequential rerun: zero executed" 0
        seq.Executor.stats.executed)

let test_parallel_golden_point () =
  (* The end-to-end schedule fingerprint must survive running inside a
     spawned worker domain (domain-local scheduler + cell state). *)
  let plan =
    { Plan.name = "parallel-golden"; cells = [ tiny (); tiny ~threads:3 () ] }
  in
  match Executor.run ~domains:2 plan with
  | { Executor.rows = { Executor.outcome = Executor.Done r; _ } :: _; _ } ->
      Alcotest.(check string)
        "epoch/list pinned point via worker domain" "ops=71 steps=2003"
        (Printf.sprintf "ops=%d steps=%d" r.Smr_harness.Workload.ops
           r.Smr_harness.Workload.steps)
  | _ -> Alcotest.fail "golden cell failed under ~domains"

(* -- golden hashes and results --------------------------------------------

   Hard-coded [Plan.cell_hash] values for pinned cells, and the exact
   (ops, steps) a pinned cell simulates to. The hashes guard the cache
   key schema (a silent change would orphan every cached sweep result);
   the ops/steps pair is an end-to-end schedule fingerprint through
   Workload + the scheme + the structure. Captured before the simulator
   hot-path overhaul; must never change. *)

let test_golden_cell_hashes () =
  let check name expect cell =
    Alcotest.(check string) name expect (Plan.cell_hash cell)
  in
  check "epoch/list t=2" "5c03fa25788483af42016ceae1d4b47a" (tiny ());
  check "hyaline/hashmap t=8" "5fec54064fd3c5266c1383b3eb4a582b"
    (Plan.cell ~scheme:"Hyaline" ~structure:Registry.Hashmap ~threads:8 ());
  check "hyaline-s/skiplist t=4 stalled=2" "544e3e0fa4f3763c4d0971fc5561d468"
    (Plan.cell ~scheme:"Hyaline-S" ~structure:Registry.Skiplist ~threads:4
       ~stalled:2 ~sample_every:500 ());
  (* The Crystalline pair: the scheme name is part of the cell key, so
     these pins freeze both the canonical names and the key schema for
     the robustness sweep's cache entries. *)
  check "crystalline-l/hashmap t=8" "df261b080f561bed274527bcada6a7c2"
    (Plan.cell ~scheme:"Crystalline-L" ~structure:Registry.Hashmap ~threads:8
       ());
  check "crystalline-w/hashmap t=8 stalled=2" "57e98d069b1ddd2ac861883234991fb2"
    (Plan.cell ~scheme:"Crystalline-W" ~structure:Registry.Hashmap ~threads:8
       ~stalled:2 ())

let test_golden_workload_point () =
  let run cell =
    match Executor.run { Plan.name = "golden"; cells = [ cell ] } with
    | { Executor.rows = [ { Executor.outcome = Executor.Done r; _ } ]; _ } ->
        (r.Smr_harness.Workload.ops, r.Smr_harness.Workload.steps)
    | _ -> Alcotest.fail "golden cell failed"
  in
  let fmt (ops, steps) = Printf.sprintf "ops=%d steps=%d" ops steps in
  Alcotest.(check string)
    "epoch/list pinned point" "ops=71 steps=2003"
    (fmt (run (tiny ())));
  Alcotest.(check string)
    "hyaline/hashmap pinned point" "ops=479 steps=20002"
    (fmt
       (run
          (Plan.cell ~scheme:"Hyaline" ~structure:Registry.Hashmap ~threads:4
             ~budget:20_000 ())))

let suite =
  [
    Alcotest.test_case "cell-hash-stability" `Quick test_hash_stability;
    Alcotest.test_case "cache-round-trip" `Quick test_cache_round_trip;
    Alcotest.test_case "resume-executes-nothing" `Quick
      test_resume_executes_nothing;
    Alcotest.test_case "failure-row" `Quick test_failure_row;
    Alcotest.test_case "parallel-rows-identical" `Quick
      test_parallel_rows_identical;
    Alcotest.test_case "parallel-cache-identical" `Quick
      test_parallel_cache_identical;
    Alcotest.test_case "parallel-resume-executes-nothing" `Quick
      test_parallel_resume_executes_nothing;
    Alcotest.test_case "parallel-golden-point" `Quick
      test_parallel_golden_point;
    Alcotest.test_case "golden-cell-hashes" `Quick test_golden_cell_hashes;
    Alcotest.test_case "golden-workload-point" `Quick
      test_golden_workload_point;
  ]
