(** The §6 workload on the {e native} runtime: real [Domain]s hammering a
    structure built over [Stdlib.Atomic], feeding the same
    {!Smr.Metrics} pipeline as the simulated {!Workload}.

    The native run is count-bound (each worker performs a fixed number of
    operations) rather than budget-bound: there is no simulated clock, so
    wall-clock seconds stand in for cost units and throughput is reported
    in operations per second. Everything else mirrors the simulated
    workload — same prefill discipline, same read/insert/delete dice,
    same per-thread RNG streams seeded [(seed, tid)] — so a (scheme,
    structure) pair exercises the same code paths on both runtimes and
    {!Parity} can compare their {e relative} orderings.

    {b Watchdog} ({!run_guarded}): a livelocked native scheme cannot be
    killed from OCaml ([Domain]s are not cancellable), and [Unix.fork] is
    forbidden for the life of any process that has ever spawned a domain
    — so guarded runs {e re-exec}: they launch a fresh copy of the
    current executable (single-domain at birth, free to spawn worker
    domains), hand it the cell descriptor over stdin, and stream the
    serialized result back over stdout. The child side is {!guard_main},
    which every binary that calls {!run_guarded} must invoke first thing
    in [main]. If the child is silent past the timeout it is SIGKILLed
    and the caller gets [Error "timeout"] — the same failure-row shape
    the sweep executor records, so a hung scheme costs one timeout
    instead of a hung CI job. Because the cell descriptor crosses an
    [exec], guarded cells are named (scheme, structure) registry pairs,
    not arbitrary modules; {!livelock_scheme_name} injects the
    deliberately-hanging dummy scheme the watchdog tests use. *)

module Native = Smr_runtime.Native_runtime
module Runner = Smr_runtime.Native_runner

type spec = {
  threads : int;  (** worker domains *)
  key_range : int;
  prefill : int;
  ops_per_thread : int;
  mix : Workload.mix;
  seed : int;
  cfg : Smr.Smr_intf.config;
  buckets : int;  (** hash-map buckets; ignored by the other structures *)
}

let default_spec =
  {
    threads = 2;
    key_range = 256;
    prefill = 128;
    ops_per_thread = 2_000;
    mix = Workload.write_heavy;
    seed = 42;
    cfg =
      {
        Smr.Smr_intf.default_config with
        max_threads = 8;
        slots = 8;
        batch_size = 8;
        era_freq = 8;
      };
    buckets = 256;
  }

type result = {
  ops : int;  (** total operations across all worker domains *)
  wall_s : float;  (** measured phase only (prefill excluded) *)
  ops_per_sec : float;
  final : Smr.Smr_intf.stats;  (** after the quiescent flush *)
  unreclaimed : int;  (** retired - freed at quiescence *)
  allocs : int;  (** {!Native_runtime.alloc_point} calls during the run *)
  alloc_bytes : int;  (** modelled bytes those calls reported *)
  metrics : Smr.Metrics.snapshot;  (** final scheme metrics snapshot *)
}

let run (module D : Registry.CONC_SET) (spec : spec) : result =
  let cfg =
    if spec.cfg.Smr.Smr_intf.max_threads >= spec.threads then spec.cfg
    else { spec.cfg with Smr.Smr_intf.max_threads = spec.threads }
  in
  Native.set_self 0;
  let a0, b0 = Native.alloc_stats () in
  let set = D.create ~buckets:spec.buckets cfg in
  (* Static registration, mirroring the simulated workload: every worker
     tid joins before the run and stays joined until quiescence. *)
  let slots = Array.init spec.threads (fun tid -> D.register ~tid set) in
  let rng = Random.State.make [| spec.seed; 0x5eed |] in
  let filled = ref 0 and attempts = ref 0 in
  let cap = (spec.prefill * 64) + 64 in
  while !filled < spec.prefill && !attempts < cap do
    incr attempts;
    if D.insert set (Random.State.int rng spec.key_range) then incr filled
  done;
  if !filled < spec.prefill then
    invalid_arg "Native_workload.run: prefill did not converge";
  let worker tid =
    let rng = Random.State.make [| spec.seed; tid |] in
    for _ = 1 to spec.ops_per_thread do
      let key = Random.State.int rng spec.key_range in
      let dice = Random.State.int rng 100 in
      (match Traffic.op_of_dice spec.mix dice with
      | Traffic.Read -> ignore (D.contains set key)
      | Traffic.Insert -> ignore (D.insert set key)
      | Traffic.Delete -> ignore (D.remove set key))
    done
  in
  let t0 = Unix.gettimeofday () in
  Runner.run ~threads:spec.threads worker;
  let wall_s = Unix.gettimeofday () -. t0 in
  (* Quiescence: everyone has left, so one flush drains every pending
     retire list, then the slots are handed back. *)
  Native.set_self 0;
  D.flush set;
  Array.iter (fun s -> D.deregister set s) slots;
  D.flush set;
  let final = D.stats set in
  let a1, b1 = Native.alloc_stats () in
  let ops = spec.threads * spec.ops_per_thread in
  {
    ops;
    wall_s;
    ops_per_sec = (if wall_s > 0.0 then float_of_int ops /. wall_s else 0.0);
    final;
    unreclaimed = Smr.Smr_intf.unreclaimed final;
    allocs = a1 - a0;
    alloc_bytes = b1 - b0;
    metrics = D.metrics set;
  }

(* -- serialization (the watchdog pipe payload) --------------------------- *)

let result_to_json (r : result) : Json.t =
  Json.Obj
    [
      ("ops", Json.Int r.ops);
      ("wall_s", Json.Float r.wall_s);
      ("ops_per_sec", Json.Float r.ops_per_sec);
      ( "final",
        Json.Obj
          [
            ("allocated", Json.Int r.final.Smr.Smr_intf.allocated);
            ("retired", Json.Int r.final.Smr.Smr_intf.retired);
            ("freed", Json.Int r.final.Smr.Smr_intf.freed);
          ] );
      ("unreclaimed", Json.Int r.unreclaimed);
      ("allocs", Json.Int r.allocs);
      ("alloc_bytes", Json.Int r.alloc_bytes);
      ("metrics", Executor.metrics_to_json r.metrics);
    ]

let result_of_json (j : Json.t) : result =
  let open Json in
  let i k v = to_int (member_exn k v) in
  let final = member_exn "final" j in
  {
    ops = i "ops" j;
    wall_s = to_float (member_exn "wall_s" j);
    ops_per_sec = to_float (member_exn "ops_per_sec" j);
    final =
      {
        Smr.Smr_intf.allocated = i "allocated" final;
        retired = i "retired" final;
        freed = i "freed" final;
      };
    unreclaimed = i "unreclaimed" j;
    allocs = i "allocs" j;
    alloc_bytes = i "alloc_bytes" j;
    metrics = Executor.metrics_of_json (member_exn "metrics" j);
  }

(* -- cell descriptors (cross the exec boundary) --------------------------- *)

let spec_to_json (s : spec) : Json.t =
  let c = s.cfg in
  Json.Obj
    [
      ("threads", Json.Int s.threads);
      ("key_range", Json.Int s.key_range);
      ("prefill", Json.Int s.prefill);
      ("ops_per_thread", Json.Int s.ops_per_thread);
      ("read_pct", Json.Int s.mix.Workload.read_pct);
      ("insert_pct", Json.Int s.mix.Workload.insert_pct);
      ("seed", Json.Int s.seed);
      ("buckets", Json.Int s.buckets);
      ( "cfg",
        Json.Obj
          [
            ("max_threads", Json.Int c.Smr.Smr_intf.max_threads);
            ("slots", Json.Int c.Smr.Smr_intf.slots);
            ("batch_size", Json.Int c.Smr.Smr_intf.batch_size);
            ("era_freq", Json.Int c.Smr.Smr_intf.era_freq);
            ("ack_threshold", Json.Int c.Smr.Smr_intf.ack_threshold);
            ("adaptive", Json.Bool c.Smr.Smr_intf.adaptive);
            ("node_bytes", Json.Int c.Smr.Smr_intf.node_bytes);
            ( "budget_bytes",
              match c.Smr.Smr_intf.budget_bytes with
              | Some b -> Json.Int b
              | None -> Json.Null );
          ] );
    ]

let spec_of_json (j : Json.t) : spec =
  let open Json in
  let i k v = to_int (member_exn k v) in
  let cfg = member_exn "cfg" j in
  {
    threads = i "threads" j;
    key_range = i "key_range" j;
    prefill = i "prefill" j;
    ops_per_thread = i "ops_per_thread" j;
    mix = { Workload.read_pct = i "read_pct" j; insert_pct = i "insert_pct" j };
    seed = i "seed" j;
    buckets = i "buckets" j;
    cfg =
      {
        Smr.Smr_intf.max_threads = i "max_threads" cfg;
        slots = i "slots" cfg;
        batch_size = i "batch_size" cfg;
        era_freq = i "era_freq" cfg;
        ack_threshold = i "ack_threshold" cfg;
        adaptive = to_bool (member_exn "adaptive" cfg);
        node_bytes = i "node_bytes" cfg;
        budget_bytes =
          (match member_exn "budget_bytes" cfg with
          | Json.Null -> None
          | v -> Some (to_int v));
      };
  }

(* -- watchdog (re-exec + pipe + deadline) --------------------------------- *)

(* The deliberately-hanging dummy "scheme": insert spins forever. Injected
   through the same named-cell protocol as real schemes, so the watchdog
   tests exercise the exact production kill path. *)
let livelock_scheme_name = "__livelock__"

module Livelock_set : Registry.CONC_SET = struct
  include
    (val Registry.Native.make_set Registry.List_set
           (Option.get (Registry.Native.scheme_of_name "Leaky")))

  let insert _t _key =
    while true do
      Domain.cpu_relax ()
    done;
    false
end

let resolve ~scheme ~structure :
    ((module Registry.CONC_SET), string) Stdlib.result =
  if String.equal scheme livelock_scheme_name then
    Ok (module Livelock_set : Registry.CONC_SET)
  else
    match Registry.Native.scheme_of_name scheme with
    | Some m -> Ok (Registry.Native.make_set structure m)
    | None -> Error ("unknown scheme " ^ scheme)

(* The child prefixes its payload with one status byte so an exception
   message is distinguishable from a JSON result without sniffing. The
   marker line fences the payload off from anything else the child
   process printed to stdout first (e.g. a test binary's module
   initializers announcing a random seed): the parent parses from the
   marker's LAST occurrence. *)
let ok_tag = 'R'
let err_tag = 'E'
let guard_env = "HYALINE_NATIVE_CELL"
let marker = "\nHYALINE_CELL_RESULT\n"

let last_index_of ~sub s =
  let n = String.length s and m = String.length sub in
  let found = ref (-1) in
  for i = 0 to n - m do
    if String.sub s i m = sub then found := i
  done;
  !found

let write_all fd b =
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let read_all fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 8192 in
  let rec go () =
    let n = Unix.read fd chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    end
  in
  go ();
  Buffer.contents buf

let run_request (req : Json.t) : string =
  match
    let scheme = Json.to_str (Json.member_exn "scheme" req) in
    let structure =
      match
        Registry.structure_of_name
          (Json.to_str (Json.member_exn "structure" req))
      with
      | Some s -> s
      | None -> failwith "unknown structure"
    in
    let spec = spec_of_json (Json.member_exn "spec" req) in
    match resolve ~scheme ~structure with
    | Ok set -> result_to_json (run set spec)
    | Error msg -> failwith msg
  with
  | j -> Printf.sprintf "%c%s" ok_tag (Json.to_string j)
  | exception e -> Printf.sprintf "%c%s" err_tag (Printexc.to_string e)

let guard_main () =
  match Sys.getenv_opt guard_env with
  | Some "1" ->
      let payload =
        match Json.of_string (read_all Unix.stdin) with
        | req -> run_request req
        | exception e ->
            Printf.sprintf "%c%s" err_tag (Printexc.to_string e)
      in
      (* Anything buffered so far (init-time prints) flushes BEFORE the
         marker; [Unix._exit] then skips at_exit re-flushing, so nothing
         can trail the payload. *)
      (try flush stdout with Sys_error _ -> ());
      (try flush stderr with Sys_error _ -> ());
      write_all Unix.stdout (Bytes.of_string (marker ^ payload));
      Unix._exit 0
  | _ -> ()

let with_watchdog ~timeout_s (req : Json.t) : (Json.t, string) Stdlib.result =
  (* cloexec on every end: the child must see ONLY the two ends
     [create_process] dup2s onto its stdin/stdout — an inherited copy of
     [req_w] would keep the request pipe open and starve the child's
     read-to-EOF forever. *)
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let env =
    Array.append
      (Array.of_list
         (List.filter
            (fun kv ->
              not (String.length kv > String.length guard_env
                   && String.sub kv 0 (String.length guard_env + 1)
                      = guard_env ^ "="))
            (Array.to_list (Unix.environment ()))))
      [| guard_env ^ "=1" |]
  in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process_env exe [| exe |] env req_r resp_w Unix.stderr
  in
  Unix.close req_r;
  Unix.close resp_w;
  (* Feed the request, then close so the child's read-to-EOF completes. *)
  (try write_all req_w (Bytes.of_string (Json.to_string req)) with _ -> ());
  (try Unix.close req_w with _ -> ());
  let deadline = Unix.gettimeofday () +. timeout_s in
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 8192 in
  let rec drain () =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0.0 then `Timeout
    else
      match Unix.select [ resp_r ] [] [] remaining with
      | [], _, _ -> `Timeout
      | _ ->
          let n = Unix.read resp_r chunk 0 (Bytes.length chunk) in
          if n = 0 then `Eof
          else begin
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
          end
  in
  let outcome = drain () in
  Unix.close resp_r;
  match outcome with
  | `Timeout ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      Error "timeout"
  | `Eof -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> (
          let out = Buffer.contents buf in
          match last_index_of ~sub:marker out with
          | -1 -> Error "native worker wrote no result marker"
          | i -> (
              let s =
                String.sub out
                  (i + String.length marker)
                  (String.length out - i - String.length marker)
              in
              if String.length s = 0 then Error "native worker wrote nothing"
              else
                match s.[0] with
                | c when c = err_tag ->
                    Error (String.sub s 1 (String.length s - 1))
                | c when c = ok_tag -> (
                    try
                      Ok (Json.of_string (String.sub s 1 (String.length s - 1)))
                    with e -> Error (Printexc.to_string e))
                | _ -> Error "native worker wrote garbage"))
      | _, _ -> Error "native worker crashed")

let run_guarded ?(timeout_s = 60.0) ~scheme ~(structure : Registry.structure)
    (spec : spec) : (result, string) Stdlib.result =
  let req =
    Json.Obj
      [
        ("scheme", Json.String scheme);
        ("structure", Json.String (Registry.structure_name structure));
        ("spec", spec_to_json spec);
      ]
  in
  match with_watchdog ~timeout_s req with
  | Ok j -> ( try Ok (result_of_json j) with e -> Error (Printexc.to_string e))
  | Error msg -> Error msg
