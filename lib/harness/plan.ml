(** See plan.mli — declarative sweep descriptions with stable cell
    hashes. *)

type scale = Quick | Full

type cell = {
  scheme : string;
  label : string;
  structure : Registry.structure;
  arch : Registry.arch;
  scale : scale;
  threads : int;
  stalled : int;
  mix : Workload.mix;
  budget : int option;
  prefill : int option;
  key_range : int option;
  use_trim : bool;
  cfg : Smr.Smr_intf.config option;
  seed : int option;
  sample_every : int;
  churn : Workload.churn option;
  service : Workload.service option;
}

type t = { name : string; cells : cell list }

(* -- workload presets ----------------------------------------------------- *)

(* Per-structure workload presets
   (prefill, key range, budget, buckets, op body cost). The op body charges
   the per-operation work the cell model does not see (hashing, key
   comparisons, allocator) — uniform across schemes; the list needs none,
   its traversal cost is fully explicit. The stack and queue run as
   set-view bags (Registry adapters): key range only spreads the pushed
   values, so it just has to exceed the prefill. *)
let preset scale ds =
  let q (prefill, key_range, budget, buckets, op_body) =
    match scale with
    | Quick -> (prefill, key_range, budget, buckets, op_body)
    | Full -> (prefill * 2, key_range * 2, budget * 4, buckets, op_body)
  in
  match ds with
  | Registry.List_set -> q (200, 400, 200_000, 0, 0)
  | Registry.Hashmap -> q (2_000, 4_000, 100_000, 4096, 25)
  | Registry.Nm_tree -> q (2_000, 4_000, 120_000, 0, 15)
  | Registry.Bonsai -> q (512, 1_024, 120_000, 0, 10)
  | Registry.Skiplist -> q (512, 1_024, 120_000, 0, 10)
  | Registry.Stack -> q (256, 4_096, 100_000, 0, 0)
  | Registry.Queue -> q (256, 4_096, 100_000, 0, 0)

let x86_grid = function
  | Quick -> [ 1; 4; 9; 18; 36; 72; 108; 144 ]
  | Full -> [ 1; 4; 9; 18; 27; 36; 54; 72; 90; 108; 126; 144 ]

let ppc_grid = function
  | Quick -> [ 1; 4; 8; 16; 32; 64; 96; 128 ]
  | Full -> [ 1; 4; 8; 16; 24; 32; 48; 64; 96; 128 ]

let base_cfg ~max_threads =
  {
    Smr.Smr_intf.default_config with
    max_threads;
    slots = 32;
    batch_size = 32;
    era_freq = 64;
    ack_threshold = 256;
  }

let spec_of_cell (c : cell) : Workload.spec =
  let preset_prefill, preset_key_range, preset_budget, buckets, op_body =
    preset c.scale c.structure
  in
  let key_range = Option.value c.key_range ~default:preset_key_range in
  (* The paper runs fixed wall-clock time, so total operations grow with
     the thread count; scale the simulated budget likewise — it also keeps
     every thread past SMR warm-up (several filled batches / scan periods)
     at every grid point. *)
  let budget =
    match c.budget with
    | Some b -> b
    | None -> preset_budget * max 1 (c.threads / 4)
  in
  let prefill = Option.value c.prefill ~default:preset_prefill in
  (* Churn lanes need their own slots on top of the static threads, and
     so does the background-reclaimer service thread, when configured. *)
  let lanes =
    match c.churn with None -> 0 | Some ch -> max 1 ch.Workload.lanes
  in
  let reclaimer_threads =
    match c.service with
    | Some { Traffic.reclaimer = Traffic.No_reclaimer; _ } | None -> 0
    | Some _ -> 1
  in
  let max_threads = c.threads + c.stalled + 1 + lanes + reclaimer_threads in
  let cfg =
    match c.cfg with
    | Some cfg -> { cfg with Smr.Smr_intf.max_threads }
    | None -> base_cfg ~max_threads
  in
  {
    Workload.threads = c.threads;
    stalled = c.stalled;
    key_range;
    prefill;
    mix = c.mix;
    budget;
    seed = Option.value c.seed ~default:(42 + c.threads);
    cfg;
    use_trim = c.use_trim;
    buckets = (if buckets = 0 then 1024 else buckets);
    sample_every = c.sample_every;
    churn = c.churn;
    op_body;
    service = c.service;
  }

(* -- builders ------------------------------------------------------------- *)

let cell ?label ?(arch = Registry.X86) ?(scale = Quick) ?(stalled = 0)
    ?(mix = Workload.write_heavy) ?budget ?prefill ?key_range
    ?(use_trim = false) ?cfg ?seed ?(sample_every = 0) ?churn ?service
    ~scheme ~structure ~threads () =
  {
    scheme;
    label = Option.value label ~default:scheme;
    structure;
    arch;
    scale;
    threads;
    stalled;
    mix;
    budget;
    prefill;
    key_range;
    use_trim;
    cfg;
    seed;
    sample_every;
    churn;
    service;
  }

let grid ~name ?(arch = Registry.X86) ?(scale = Quick)
    ?(mix = Workload.write_heavy) ?schemes ?structures ~threads () =
  let schemes =
    match schemes with Some s -> s | None -> Registry.scheme_names
  in
  let structures =
    match structures with Some s -> s | None -> Registry.paper_structures
  in
  let cells =
    List.concat_map
      (fun structure ->
        List.concat_map
          (fun scheme ->
            if not (Registry.supported structure scheme) then []
            else
              List.map
                (fun t -> cell ~arch ~scale ~mix ~scheme ~structure ~threads:t ())
                threads)
          schemes)
      structures
  in
  { name; cells }

(* The robustness sweep: the Fig. 10a stalled-reader adversary. A
   write-heavy hashmap with two permanently stalled readers, sampled on a
   fixed timeline, over Epoch, a no-stall Epoch series that anchors the
   healthy baseline, the baselines and the Hyaline lineage down to both
   Crystalline flavours. Non-robust EBR cannot advance its epoch past a
   stalled reader, so its resident bytes grow for the whole run; robust
   schemes stay bounded. Small batches keep reclamation granularity fine
   enough to see the contrast, and a small, hot working set churns
   pre-stall nodes out within the first fraction of the run, so robust
   schemes visibly plateau while Epoch keeps leaking until the end. *)
let robustness ?(scale = Quick) () =
  let budget = match scale with Quick -> 400_000 | Full -> 1_600_000 in
  let sample_every = budget / 40 in
  let cfg =
    {
      (base_cfg ~max_threads:1) with
      Smr.Smr_intf.slots = 8;
      batch_size = 8;
      era_freq = 16;
      ack_threshold = 16;
    }
  in
  let mk ?label ?(stalled = 2) scheme =
    cell ?label ~scale ~stalled ~budget ~sample_every ~cfg ~seed:7
      ~prefill:128 ~key_range:256 ~scheme ~structure:Registry.Hashmap
      ~threads:8 ()
  in
  {
    name = "robustness";
    cells =
      mk "Epoch"
      :: mk ~label:"Epoch-nostall" ~stalled:0 "Epoch"
      :: List.map
           (fun s -> mk s)
           [
             "IBR";
             "HP";
             "Hyaline";
             "Hyaline-S";
             "Hyaline-1S";
             "Crystalline-L";
             "Crystalline-W";
           ];
  }

(* The thread-churn sweep (ROADMAP items 1/5): a hashmap under a steady
   stream of short-lived session threads that register, run a small burst
   of operations, deregister and leave. Each cell runs >= 2000 join/leave
   events; the paired static cell (same everything, no churn) is the
   baseline the churn-overhead delta in {!Scenario.churn} is taken
   against. Hyaline-1's registration is a no-op (the paper's §2.4
   transparency claim), so its delta collapses to the sessions' own
   operations; EBR/HP/HE/IBR additionally pay their per-thread
   registration stores and the scan traffic over a longer live-slot
   list. *)
let churn_sweep ?(scale = Quick) () =
  let sessions = match scale with Quick -> 1200 | Full -> 4800 in
  let ch = { Workload.sessions; session_ops = 4; lanes = 8 } in
  let budget = match scale with Quick -> 600_000 | Full -> 2_400_000 in
  let mk ?churn scheme =
    cell
      ?label:
        (match churn with
        | Some _ -> None
        | None -> Some (scheme ^ "-static"))
      ?churn ~scale ~budget ~seed:11 ~scheme ~structure:Registry.Hashmap
      ~threads:4 ()
  in
  {
    name = "churn";
    cells =
      List.concat_map
        (fun scheme -> [ mk scheme; mk ~churn:ch scheme ])
        [ "Epoch"; "HP"; "HE"; "IBR"; "Hyaline-1"; "Hyaline" ];
  }

(* The million-user session-cache service sweep (ROADMAP item 1): the
   open-loop driver plays a cache shard's day in miniature — Zipfian keys
   with a mid-run hot-key storm, a 3:1 read:write client-tier split,
   bursty request arrivals, connection churn via session lanes, two
   permanently stalled readers and a byte budget arming the OOM
   protocol. Non-robust Epoch cannot reclaim past the stalled readers:
   its resident bytes climb toward the budget (and over it, OOMing the
   cell) while robust Hyaline-S plateaus and keeps serving with a bounded
   sojourn tail — the contrast {!Scenario.service} turns into a verdict.
   A periodic background reclaimer thread gives every scheme its best
   shot at draining limbo between requests. *)
let service_sweep ?(scale = Quick) () =
  (* Full is the headline ten-million-step open-loop run (ROADMAP item 1):
     affordable only because the retire path allocates nothing and the
     timer queue is a heap (DESIGN.md §15). *)
  let budget = match scale with Quick -> 600_000 | Full -> 10_000_000 in
  let sample_every = budget / 40 in
  let sessions = match scale with Quick -> 160 | Full -> 640 in
  let storm =
    {
      Traffic.storm_at = budget * 2 / 5;
      storm_len = budget / 4;
      storm_keys = 8;
      storm_pct = 50;
    }
  in
  let tiers =
    [
      {
        Traffic.tier_name = "readers";
        tier_mix = { Workload.read_pct = 90; insert_pct = 5 };
        tier_weight = 1;
      };
      {
        Traffic.tier_name = "writers";
        tier_mix = { Workload.read_pct = 0; insert_pct = 40 };
        tier_weight = 1;
      };
    ]
  in
  let service =
    {
      Traffic.arrival =
        Traffic.Bursty
          {
            mean_gap = 90;
            burst_gap = 45;
            burst_every = budget / 4;
            burst_len = budget / 40;
          };
      keys = Traffic.Zipf { theta = 0.9 };
      storm = Some storm;
      tiers;
      reclaimer = Traffic.Periodic (budget / 200);
    }
  in
  let churn = { Workload.sessions; session_ops = 4; lanes = 4 } in
  let cfg =
    {
      (base_cfg ~max_threads:1) with
      Smr.Smr_intf.slots = 16;
      batch_size = 8;
      era_freq = 16;
      ack_threshold = 16;
      (* Sited between the robust schemes' plateau (≤ ~90KB) and the
         hostage-horizon trajectory Epoch / plain Hyaline follow under
         two stalled readers (~20KB per 100k steps): both cross it
         late in the run, and the relief scan frees nothing their
         frozen horizons hold — a deterministic simulated OOM. *)
      budget_bytes = Some 140_000;
    }
  in
  let mk scheme =
    cell ~scale ~stalled:2 ~budget ~sample_every ~cfg ~seed:13 ~prefill:128
      ~key_range:256 ~churn ~service ~scheme ~structure:Registry.Hashmap
      ~threads:8 ()
  in
  {
    name = "service";
    cells = List.map mk [ "Epoch"; "HP"; "HE"; "IBR"; "Hyaline"; "Hyaline-S" ];
  }

(* -- identity ------------------------------------------------------------- *)

(* The key renders the RESOLVED run inputs, not the sugar that produced
   them: if a preset or default changes, so does the key, and stale cache
   entries simply stop matching. The mutable Sim_cell cost model is part
   of the simulation input (the sensitivity sweep ablates it), so it is
   part of the key too. *)
let cell_key (c : cell) : string =
  let s = spec_of_cell c in
  let cfg = s.Workload.cfg in
  let costs = Smr_runtime.Sim_cell.current_costs () in
  Printf.sprintf
    "hyaline-cell v2|runtime=sim|scheme=%s|structure=%s|arch=%s|threads=%d|stalled=%d|read_pct=%d|key_range=%d|prefill=%d|budget=%d|seed=%d|use_trim=%b|buckets=%d|sample_every=%d|op_body=%d|cfg=%d,%d,%d,%d,%d,%b,%d|mem=%d,%s|costs=%d,%d,%d,%d,%d,%d"
    c.scheme
    (Registry.structure_name c.structure)
    (Registry.arch_name c.arch)
    s.Workload.threads s.Workload.stalled s.Workload.mix.Workload.read_pct
    s.Workload.key_range s.Workload.prefill s.Workload.budget s.Workload.seed
    s.Workload.use_trim s.Workload.buckets s.Workload.sample_every
    s.Workload.op_body cfg.Smr.Smr_intf.max_threads cfg.Smr.Smr_intf.slots
    cfg.Smr.Smr_intf.batch_size cfg.Smr.Smr_intf.era_freq
    cfg.Smr.Smr_intf.ack_threshold cfg.Smr.Smr_intf.adaptive
    Smr.Smr_intf.hp_indices cfg.Smr.Smr_intf.node_bytes
    (match cfg.Smr.Smr_intf.budget_bytes with
    | None -> "-"
    | Some b -> string_of_int b)
    costs.Smr_runtime.Sim_cell.read costs.Smr_runtime.Sim_cell.write
    costs.Smr_runtime.Sim_cell.cas costs.Smr_runtime.Sim_cell.faa
    costs.Smr_runtime.Sim_cell.swap costs.Smr_runtime.Sim_cell.alloc
  (* The segments below are appended only when the feature they describe
     is configured, so every pre-existing cache key (and entry) stays
     byte-identical: a balanced mix is the historical implicit 50/50
     insert/delete split, a churn-free closed-loop cell gets neither
     suffix. *)
  ^ (if Traffic.balanced s.Workload.mix then ""
     else
       Printf.sprintf "|insert_pct=%d" s.Workload.mix.Workload.insert_pct)
  ^ (match s.Workload.churn with
    | None -> ""
    | Some ch ->
        Printf.sprintf "|churn=%d,%d,%d" ch.Workload.sessions
          ch.Workload.session_ops ch.Workload.lanes)
  ^
  match s.Workload.service with
  | None -> ""
  | Some sv -> "|service=" ^ Traffic.service_key sv

let cell_hash c = Digest.to_hex (Digest.string (cell_key c))
