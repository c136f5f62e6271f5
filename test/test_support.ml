(** Shared test plumbing: every scheme instantiated over the simulated
    runtime, plus helpers for running workloads under the deterministic
    scheduler. *)

module Sim = Smr_runtime.Sim_runtime
module Sched = Smr_runtime.Scheduler

module type SMR = Smr.Smr_intf.SMR
module type HYALINE = Hyaline_core.Hyaline_intf.S

module Leaky = Smr.Leaky.Make (Sim)
module Ebr = Smr.Ebr.Make (Sim)
module Hp = Smr.Hp.Make (Sim)
module He = Smr.He.Make (Sim)
module Ibr = Smr.Ibr.Make (Sim)
module Hyaline = Hyaline_core.Hyaline.Make (Sim)
module Hyaline_llsc = Hyaline_core.Hyaline.Make_llsc (Sim)
module Hyaline1 = Hyaline_core.Hyaline1.Make (Sim)
module Hyaline_s = Hyaline_core.Hyaline_s.Make (Sim)
module Hyaline_s_llsc = Hyaline_core.Hyaline_s.Make_llsc (Sim)
module Hyaline1s = Hyaline_core.Hyaline1s.Make (Sim)

(* Every reclaiming scheme (Leaky excluded where reclamation is asserted). *)
let reclaiming_schemes : (string * (module SMR)) list =
  [
    ("epoch", (module Ebr));
    ("hp", (module Hp));
    ("he", (module He));
    ("ibr", (module Ibr));
    ("hyaline", (module Hyaline));
    ("hyaline-llsc", (module Hyaline_llsc));
    ("hyaline-1", (module Hyaline1));
    ("hyaline-s", (module Hyaline_s));
    ("hyaline-s-llsc", (module Hyaline_s_llsc));
    ("hyaline-1s", (module Hyaline1s));
  ]

let all_schemes : (string * (module SMR)) list =
  ("leaky", (module Leaky)) :: reclaiming_schemes

(* Small knobs so reclamation paths run often in tests. *)
let test_cfg ~threads =
  {
    Smr.Smr_intf.default_config with
    max_threads = threads;
    slots = 4;
    batch_size = 8;
    era_freq = 4;
  }

(* Run [f tid] on [threads] simulated threads to completion; returns the
   consumed cost units. *)
let run_threads ?(seed = 42) ~threads f =
  let sched = Sched.create ~seed () in
  for tid = 0 to threads - 1 do
    ignore (Sched.spawn sched (fun () -> f tid))
  done;
  match Sched.run sched with
  | Sched.All_finished -> Sched.now sched
  | Sched.Budget_exhausted | Sched.Only_stalled ->
      Alcotest.fail "simulated threads did not finish"

(* Run one function on a single simulated thread (the simulated runtime
   needs a thread identity even for sequential code). *)
let run_solo f =
  let result = ref None in
  ignore (run_threads ~threads:1 (fun _ -> result := Some (f ())));
  match !result with Some r -> r | None -> assert false

(* Per-class op counts in a fixed order (reads, writes, plain writes, CAS
   successes, CAS failures, FAAs, swaps, allocs), for pinning what an
   operation charges. *)
let classes (c : Smr_runtime.Sim_cell.op_counts) =
  [ c.reads; c.writes; c.plain_writes; c.cas_ok; c.cas_fail; c.faas;
    c.swaps; c.allocs ]

let check_no_leak name (stats : Smr.Smr_intf.stats) =
  Alcotest.(check int)
    (name ^ ": all retired nodes freed at quiescence")
    0
    (Smr.Smr_intf.unreclaimed stats)

let phys_opt a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> x == y
  | None, Some _ | Some _, None -> false
