(** The driver layer of the traffic engine: everything that decides
    {e what} the workload asks of the structure — operation mixes, arrival
    processes, key distributions, client tiers and the background
    reclaimer — separated from the measurement core ({!Measure}) and the
    run orchestration ({!Workload}).

    Every generator here is a pure function of a seeded [Random.State], so
    a (spec, seed) pair replays bit-identically: the same arrival stream,
    the same key stream, the same storm decisions. *)

(* -- operation mix ------------------------------------------------------- *)

type mix = {
  read_pct : int;  (** percentage of operations that are reads *)
  insert_pct : int;
      (** percentage that are inserts; deletes are the remainder *)
}

let write_heavy = { read_pct = 0; insert_pct = 50 }
let read_mostly = { read_pct = 90; insert_pct = 5 }

(* The historical driver split non-reads 50/50 by dice parity. A mix is
   [balanced] when its explicit ratios ask for exactly that split — those
   mixes keep the parity decision (and therefore the historical op
   sequence, schedules, goldens and cache keys) bit-for-bit. *)
let balanced m = 2 * m.insert_pct = 100 - m.read_pct

let mix ?insert_pct read_pct =
  if read_pct < 0 || read_pct > 100 then
    invalid_arg "Traffic.mix: read_pct outside 0-100";
  let insert_pct =
    match insert_pct with Some i -> i | None -> (100 - read_pct) / 2
  in
  if insert_pct < 0 || read_pct + insert_pct > 100 then
    invalid_arg "Traffic.mix: insert_pct outside 0-(100-read_pct)";
  { read_pct; insert_pct }

type op = Read | Insert | Delete

(* [dice] is a uniform draw in [0, 100). Balanced mixes take the legacy
   parity branch; everything else splits the dice range explicitly. *)
let op_of_dice m dice =
  if dice < m.read_pct then Read
  else if 2 * m.insert_pct = 100 - m.read_pct then
    if dice land 1 = 0 then Insert else Delete
  else if dice < m.read_pct + m.insert_pct then Insert
  else Delete

(* -- arrival processes --------------------------------------------------- *)

(** Deterministic open-loop arrival processes over the scheduler's cost
    clock. All gaps are exponentially distributed (memoryless arrivals);
    the variants differ in how the mean gap evolves with time. *)
type arrival =
  | Poisson of { mean_gap : int }  (** constant-rate Poisson stream *)
  | Bursty of {
      mean_gap : int;  (** gap outside bursts *)
      burst_gap : int;  (** gap inside bursts (smaller = spike) *)
      burst_every : int;  (** burst period in cost units *)
      burst_len : int;  (** burst duration within each period *)
    }
  | Diurnal of {
      trough_gap : int;  (** mean gap at the quietest point *)
      peak_gap : int;  (** mean gap at the busiest point *)
      period : int;  (** full quiet-busy-quiet cycle in cost units *)
    }

type arrivals = { mutable at : int; a_rng : Random.State.t; proc : arrival }

let arrivals ?(start = 0) ~seed proc =
  { at = start; a_rng = Random.State.make [| seed; 0xa441 |]; proc }

(* Inverse-CDF exponential gap with the given mean, floored at 1 so the
   stream always advances. [log1p (-. u)] is log (1 - u) without the
   cancellation near u = 0. *)
let exp_gap rng mean =
  let u = Random.State.float rng 1.0 in
  let g = int_of_float (-.mean *. log1p (-.u)) in
  if g < 1 then 1 else g

let next_arrival s =
  let gap =
    match s.proc with
    | Poisson { mean_gap } -> exp_gap s.a_rng (float_of_int mean_gap)
    | Bursty { mean_gap; burst_gap; burst_every; burst_len } ->
        if s.at mod burst_every < burst_len then
          exp_gap s.a_rng (float_of_int burst_gap)
        else exp_gap s.a_rng (float_of_int mean_gap)
    | Diurnal { trough_gap; peak_gap; period } ->
        (* Raised-cosine ramp: trough at phase 0, peak at phase 1/2. *)
        let phase = float_of_int (s.at mod period) /. float_of_int period in
        let w = 0.5 *. (1.0 -. cos (2.0 *. Float.pi *. phase)) in
        let mean =
          float_of_int trough_gap
          +. (w *. float_of_int (peak_gap - trough_gap))
        in
        exp_gap s.a_rng (max 1.0 mean)
  in
  s.at <- s.at + gap;
  s.at

(* -- key generators ------------------------------------------------------ *)

type keys =
  | Uniform
  | Zipf of { theta : float }
      (** rank-ordered Zipfian skew: key 0 is the hottest. [theta] in
          (0, 1); 0.99 is the YCSB default, higher is more skewed. *)

(** A hot-key storm: during the window
    [\[storm_at, storm_at + storm_len)] of the measured phase,
    [storm_pct]% of key draws collapse onto keys
    [\[0, storm_keys)] — a viral-object phase on top of the base
    distribution. *)
type storm = {
  storm_at : int;
  storm_len : int;
  storm_keys : int;
  storm_pct : int;
}

(* Precomputed YCSB-style bounded Zipf sampler (Gray et al.'s
   quick-and-dirty generator): one O(n) harmonic sum at construction,
   O(1) float math per draw. *)
type zipf = { n : int; theta : float; z_alpha : float; zetan : float; eta : float }

let zipf_make ~n ~theta =
  if n <= 0 then invalid_arg "Traffic.zipf: empty key range";
  if theta <= 0.0 || theta >= 1.0 then
    invalid_arg "Traffic.zipf: theta outside (0, 1)";
  let zeta m =
    let s = ref 0.0 in
    for i = 1 to m do
      s := !s +. (1.0 /. Float.pow (float_of_int i) theta)
    done;
    !s
  in
  let zetan = zeta n in
  let zeta2 = zeta 2 in
  let eta =
    (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
    /. (1.0 -. (zeta2 /. zetan))
  in
  { n; theta; z_alpha = 1.0 /. (1.0 -. theta); zetan; eta }

let zipf_draw z rng =
  let u = Random.State.float rng 1.0 in
  let uz = u *. z.zetan in
  if uz < 1.0 then 0
  else if uz < 1.0 +. Float.pow 0.5 z.theta then 1
  else begin
    let r =
      float_of_int z.n
      *. Float.pow ((z.eta *. u) -. z.eta +. 1.0) z.z_alpha
    in
    let r = int_of_float r in
    if r >= z.n then z.n - 1 else if r < 0 then 0 else r
  end

type kind = K_uniform | K_zipf of zipf

type keygen = {
  kind : kind;
  storm : storm option;
  mutable hot_ops : int;  (** draws the storm redirected to hot keys *)
}

let keygen ?storm ~key_range keys =
  let kind =
    match keys with
    | Uniform -> K_uniform
    | Zipf { theta } -> K_zipf (zipf_make ~n:key_range ~theta)
  in
  { kind; storm; hot_ops = 0 }

(* Draw the next key. [now] is cost units into the measured phase (storm
   windows are phase-relative). The storm dice is drawn before the base
   key so the per-op draw sequence stays deterministic. *)
let key kg rng ~now ~key_range =
  match kg.storm with
  | Some st
    when now >= st.storm_at
         && now < st.storm_at + st.storm_len
         && Random.State.int rng 100 < st.storm_pct ->
      kg.hot_ops <- kg.hot_ops + 1;
      Random.State.int rng (min key_range (max 1 st.storm_keys))
  | _ -> (
      match kg.kind with
      | K_uniform -> Random.State.int rng key_range
      | K_zipf z -> zipf_draw z rng)

let hot_ops kg = kg.hot_ops

(* -- client tiers -------------------------------------------------------- *)

(** A client population with its own operation mix; workers are dealt to
    tiers round-robin proportionally to [tier_weight]. *)
type tier = { tier_name : string; tier_mix : mix; tier_weight : int }

(* Per-worker mix assignment: worker [tid] takes the tier owning slot
   [tid mod total_weight] of the cumulative weight line — deterministic,
   proportional, and independent of the worker count. *)
let tier_mixes ~threads ~default tiers =
  let tiers = List.filter (fun t -> t.tier_weight > 0) tiers in
  match tiers with
  | [] -> Array.make (max threads 1) default
  | _ ->
      let total = List.fold_left (fun a t -> a + t.tier_weight) 0 tiers in
      let mix_of_slot slot =
        let rec go acc = function
          | [] -> assert false
          | [ t ] -> ignore acc; t.tier_mix
          | t :: rest ->
              if slot < acc + t.tier_weight then t.tier_mix
              else go (acc + t.tier_weight) rest
        in
        go 0 tiers
      in
      Array.init (max threads 1) (fun tid -> mix_of_slot (tid mod total))

(* -- background reclaimer ------------------------------------------------ *)

(** The background-reclaimer knob: how (if at all) a dedicated service
    thread drives the scheme's [flush] path during the measured phase.
    [Periodic n] sleeps [n] cost units between flushes (a cron-style
    housekeeper, idle gaps fast-forwarded); [Dedicated n] flushes in a
    tight loop, charging [n] cost units of its own work per round (a
    thread that competes for the core). *)
type reclaimer = No_reclaimer | Periodic of int | Dedicated of int

(* -- the open-loop service description ----------------------------------- *)

type service = {
  arrival : arrival;
  keys : keys;
  storm : storm option;
  tiers : tier list;  (** [] — every worker uses the spec's own mix *)
  reclaimer : reclaimer;
}

let poisson_service ?(mean_gap = 64) () =
  {
    arrival = Poisson { mean_gap };
    keys = Uniform;
    storm = None;
    tiers = [];
    reclaimer = No_reclaimer;
  }

(* -- cache-key renderings ------------------------------------------------ *)

let mix_key m = Printf.sprintf "%d/%d" m.read_pct m.insert_pct

let arrival_key = function
  | Poisson { mean_gap } -> Printf.sprintf "poisson:%d" mean_gap
  | Bursty { mean_gap; burst_gap; burst_every; burst_len } ->
      Printf.sprintf "bursty:%d,%d,%d,%d" mean_gap burst_gap burst_every
        burst_len
  | Diurnal { trough_gap; peak_gap; period } ->
      Printf.sprintf "diurnal:%d,%d,%d" trough_gap peak_gap period

let keys_key = function
  | Uniform -> "uniform"
  | Zipf { theta } -> Printf.sprintf "zipf:%g" theta

let storm_key = function
  | None -> "-"
  | Some s ->
      Printf.sprintf "%d,%d,%d,%d" s.storm_at s.storm_len s.storm_keys
        s.storm_pct

let reclaimer_key = function
  | No_reclaimer -> "-"
  | Periodic n -> Printf.sprintf "periodic:%d" n
  | Dedicated n -> Printf.sprintf "dedicated:%d" n

let tiers_key tiers =
  match tiers with
  | [] -> "-"
  | _ ->
      String.concat "+"
        (List.map
           (fun t ->
             Printf.sprintf "%s:%s:%d" t.tier_name (mix_key t.tier_mix)
               t.tier_weight)
           tiers)

(* One-line rendering of everything in a [service] that determines the
   run — appended to {!Plan.cell_key} for open-loop cells. *)
let service_key s =
  Printf.sprintf "arr=%s;keys=%s;storm=%s;tiers=%s;recl=%s"
    (arrival_key s.arrival) (keys_key s.keys) (storm_key s.storm)
    (tiers_key s.tiers)
    (reclaimer_key s.reclaimer)
