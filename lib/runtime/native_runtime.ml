(** Native runtime: [Stdlib.Atomic] cells and [Domain]-local thread ids.

    Used for true-parallelism stress tests and native micro-benchmarks.
    Thread ids are stored in domain-local state and assigned by
    {!Native_runner.run}. *)

let name = "native"

module Atomic = struct
  type 'a t = 'a Stdlib.Atomic.t

  let make = Stdlib.Atomic.make
  let get = Stdlib.Atomic.get
  let set = Stdlib.Atomic.set
  let set_plain = Stdlib.Atomic.set
  let exchange = Stdlib.Atomic.exchange
  let compare_and_set = Stdlib.Atomic.compare_and_set
  let fetch_and_add = Stdlib.Atomic.fetch_and_add
  let incr = Stdlib.Atomic.incr
  let decr = Stdlib.Atomic.decr
end

let tid_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)
let set_self tid = Domain.DLS.get tid_key := tid
let self () = !(Domain.DLS.get tid_key)
let yield () = Domain.cpu_relax ()

(* Allocation accounting. The simulated runtime charges [alloc_point] to
   its cost model; natively there is no simulated clock, but the call
   still carries the byte amount every scheme reports for each node
   (header overhead + payload), so it is the native analogue of the
   sweep's bytes-allocated series. Global atomics: the native harness
   runs one workload at a time and snapshots deltas around it. *)
let allocs = Stdlib.Atomic.make 0
let alloc_bytes = Stdlib.Atomic.make 0

let alloc_point ~bytes =
  Stdlib.Atomic.incr allocs;
  ignore (Stdlib.Atomic.fetch_and_add alloc_bytes bytes)

let alloc_stats () =
  (Stdlib.Atomic.get allocs, Stdlib.Atomic.get alloc_bytes)

let reset_alloc_stats () =
  Stdlib.Atomic.set allocs 0;
  Stdlib.Atomic.set alloc_bytes 0
