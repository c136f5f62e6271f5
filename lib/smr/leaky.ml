(** No reclamation at all — the paper's [Leaky] baseline (§6). Retired nodes
    are counted but never freed, so throughput shows the cost floor of the
    data structure itself. *)

module Make (R : Smr_runtime.Runtime_intf.S) = struct
  let scheme_name = "Leaky"
  let robust = false

  module R = R

  type 'a node = { payload : 'a; state : Lifecycle.cell }

  type 'a t = {
    cfg : Smr_intf.config;
    counters : Lifecycle.counters;
    (* Leaky keeps no per-thread state at all, but it still carries a slot
       registry so the lifecycle API is uniform across schemes; join and
       leave are pure bookkeeping with zero charged operations. *)
    reg : Slot_registry.t;
  }

  type 'a guard = unit

  (* Leaky nodes still carry a modelled link word. *)
  let node_overhead_bytes = 8

  let create (cfg : Smr_intf.config) =
    {
      cfg;
      counters = Lifecycle.make_counters ~mem:(Smr_intf.mem_config cfg) ();
      reg = Slot_registry.create ~capacity:cfg.max_threads;
    }

  (* No relief possible: Leaky never reclaims, so a configured byte budget
     is simply a countdown to the simulated OOM. *)
  let alloc ?bytes t payload =
    let bytes =
      node_overhead_bytes
      + Option.value bytes ~default:t.cfg.Smr_intf.node_bytes
    in
    R.alloc_point ~bytes;
    {
      payload;
      state =
        Lifecycle.on_alloc_hot ~bytes ~relieve:ignore ~scheme:scheme_name
          t.counters;
    }

  let data n =
    Lifecycle.check_not_freed ~scheme:scheme_name ~what:"data" n.state;
    n.payload

  let register ?tid t =
    let tid = match tid with Some tid -> tid | None -> R.self () in
    Slot_registry.register t.reg ~tid

  let deregister t s = Slot_registry.release t.reg s
  let enter (_ : _ t) = ()
  let leave (_ : _ t) () = ()

  let retire t () n =
    Lifecycle.on_retire ~scheme:scheme_name n.state t.counters

  let protect (_ : _ t) () ~idx:_ ~read ~target:_ = read ()
  let transfer (_ : _ t) () ~idx:_ (_ : _ node) = ()
  let refresh t g =
    leave t g;
    enter t

  let flush (_ : _ t) = ()
  let relieve (_ : _ t) = ()
  let stats t = Lifecycle.stats t.counters

  let metrics t =
    let s = Lifecycle.stats t.counters in
    Lifecycle.snapshot ~scheme:scheme_name
      ~series:
        (("leaked", Smr_intf.unreclaimed s) :: Slot_registry.series t.reg)
      t.counters
end
