(** Equivalence pins for the single-slot schemes (Hyaline-1, Hyaline-1S,
    Crystalline-L, Crystalline-W): one digest per scheme over pinned
    simulator cells — hash map, list and stack, a hash map with two
    permanently stalled readers, and a hash map whose reader is killed
    mid-bracket by the explorer. Each digest covers the cell's ops, steps,
    per-class op costs, peak unreclaimed and the scheme's metric series,
    so any change to what the engine charges, allocates or counts shows
    up as a drift here.

    One documented exception: Crystalline-L's four handshake series
    ([protect_fast_retries], [protect_slow_paths], [help_deposits],
    [help_adoptions]) are always zero — L never runs the handshake — and
    are hashed out, so the digest is the same whether or not the scheme
    reports them. The test asserts they are zero whenever present. *)

module Plan = Smr_harness.Plan
module Executor = Smr_harness.Executor
module Registry = Smr_harness.Registry
module Workload = Smr_harness.Workload
module Explore = Smr_runtime.Explore

let handshake_series =
  [ "protect_fast_retries"; "protect_slow_paths"; "help_deposits";
    "help_adoptions" ]

let add_series b scheme (m : Smr.Metrics.snapshot) =
  List.iter
    (fun (k, v) ->
      if scheme = "Crystalline-L" && List.mem k handshake_series then
        Alcotest.(check int) (scheme ^ ": " ^ k ^ " is zero") 0 v
      else Printf.bprintf b "%s=%d," k v)
    m.Smr.Metrics.series;
  Printf.bprintf b "peak=%d;" m.Smr.Metrics.peak_unreclaimed

let add_cell b scheme (r : Workload.result) =
  let c = r.Workload.op_costs in
  let open Smr_runtime.Sim_cell in
  Printf.bprintf b "ops=%d;steps=%d;peak=%d;" r.Workload.ops r.Workload.steps
    r.Workload.peak_unreclaimed;
  Printf.bprintf b "r%d,w%d,p%d,c%d/%d,f%d,s%d,a%d;" c.reads c.writes
    c.plain_writes c.cas_ok c.cas_fail c.faas c.swaps c.allocs;
  Printf.bprintf b "rc%d,wc%d,pc%d,cc%d,fc%d,sc%d,ac%d;" c.read_cost
    c.write_cost c.plain_write_cost c.cas_cost c.faa_cost c.swap_cost
    c.alloc_cost;
  add_series b scheme r.Workload.metrics

(* A reader entered on the hash map and killed mid-bracket, two writers
   churning around it: the dead slot's pinning is what the digest sees. *)
let kill_cell b scheme =
  let s =
    match Registry.Sim.scheme_of_name scheme with
    | Some s -> s
    | None -> Alcotest.fail ("registry lost " ^ scheme)
  in
  let (module D) = Registry.Sim.make_set Registry.Hashmap s in
  let captured = ref None in
  let program () =
    let cfg =
      {
        (Test_support.test_cfg ~threads:3) with
        Smr.Smr_intf.batch_size = 4;
        era_freq = 2;
      }
    in
    let set = D.create ~buckets:4 cfg in
    let reader () =
      let g = D.enter set in
      for k = 1 to 200 do
        ignore (D.contains_with set g (k mod 8))
      done;
      D.leave set g
    in
    let writer tid () =
      for i = 1 to 60 do
        let k = (tid * 8) + (i mod 8) in
        ignore (D.insert set k);
        ignore (D.remove set k)
      done
    in
    ( [ reader; writer 1; writer 2 ],
      fun () ->
        captured := Some (D.metrics set);
        true )
  in
  (match
     Explore.explore
       ~mode:(Explore.Random_walk { walks = 1 })
       ~seed:11
       ~faults:[ Explore.kill_at ~victim:0 ~at:40 () ]
       ~max_steps:max_int program
   with
  | Explore.Violation { message; _ } ->
      Alcotest.fail (scheme ^ ": kill cell violation: " ^ message)
  | Explore.Exhausted _ | Explore.Limit_reached _ -> ());
  match !captured with
  | Some m ->
      Printf.bprintf b "kill:a%d,r%d,f%d;" m.Smr.Metrics.allocated
        m.Smr.Metrics.retired m.Smr.Metrics.freed;
      add_series b scheme m
  | None -> Alcotest.fail (scheme ^ ": kill cell post-condition never ran")

let digest scheme =
  let b = Buffer.create 1024 in
  let cells =
    [
      Plan.cell ~scheme ~structure:Registry.Hashmap ~threads:4 ~budget:20_000
        ();
      Plan.cell ~scheme ~structure:Registry.List_set ~threads:3 ~budget:8_000
        ~prefill:32 ~key_range:64 ();
      Plan.cell ~scheme ~structure:Registry.Stack ~threads:3 ~budget:8_000
        ~prefill:16 ~key_range:64 ();
      Plan.cell ~scheme ~structure:Registry.Hashmap ~threads:3 ~stalled:2
        ~budget:20_000 ~sample_every:2_000 ();
    ]
  in
  List.iter (fun c -> add_cell b scheme (Executor.run_cell_exn c)) cells;
  kill_cell b scheme;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Hyaline-1 and Crystalline-W were captured from the separate
   Crystalline engine, before the four schemes shared one. Hyaline-1S and
   Crystalline-L run the same reader protocol, so their digests agree;
   they were re-pinned when that protocol began reading the owner's plain
   copy of its access era instead of the shared cell. *)
let golden =
  [
    ("Hyaline-1", "57bb8b817ce4b4d7d1c21adc23814bbc");
    ("Hyaline-1S", "4db3d70345dfd17ae333ef89860fc74f");
    ("Crystalline-L", "4db3d70345dfd17ae333ef89860fc74f");
    ("Crystalline-W", "8d0e5bff1a0871504dd8e8185b04ad7e");
  ]

let test_golden () =
  List.iter
    (fun (scheme, expect) ->
      Alcotest.(check string) (scheme ^ ": pinned digest") expect
        (digest scheme))
    golden

let suite = [ Alcotest.test_case "single-slot-golden" `Quick test_golden ]
