(** Lightweight wall-clock profiling of the harness's own phases.

    The simulator is the bottleneck for every figure this repo produces,
    so the drivers can ask {e where the wall-clock time goes}: phases
    (prefill, measured run, cache IO, ...) are timed with
    [Unix.gettimeofday] and may additionally accumulate simulated-step
    counts, giving a steps-per-second figure per phase.

    Profiling is strictly opt-in ([--profile] on the drivers): disabled —
    the default — [time] adds one branch per call and touches nothing
    else, so measured runs are unaffected. The registry is global and
    shared by every domain (parallel sweep workers call [time] too), so
    all mutation happens under one mutex; phases are keyed by name and
    reported in first-use order. *)

type phase = {
  p_name : string;
  mutable p_wall : float;  (* accumulated seconds *)
  mutable p_calls : int;
  mutable p_steps : int;  (* simulated cost units, if the caller reports *)
}

let enabled = ref false
let phases : phase list ref = ref []  (* reverse first-use order *)
let lock = Mutex.create ()

let set_enabled b = enabled := b
let is_enabled () = !enabled

let reset () = Mutex.protect lock (fun () -> phases := [])

(* Callers hold [lock]. *)
let find name =
  match List.find_opt (fun p -> String.equal p.p_name name) !phases with
  | Some p -> p
  | None ->
      let p = { p_name = name; p_wall = 0.0; p_calls = 0; p_steps = 0 } in
      phases := p :: !phases;
      p

let time name f =
  if not !enabled then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let dt = Unix.gettimeofday () -. t0 in
        Mutex.protect lock (fun () ->
            let p = find name in
            p.p_wall <- p.p_wall +. dt;
            p.p_calls <- p.p_calls + 1))
      f
  end

let add_steps name n =
  if !enabled then
    Mutex.protect lock (fun () ->
        let p = find name in
        p.p_steps <- p.p_steps + n)

let ordered () = List.rev !phases

let pp ppf () =
  match ordered () with
  | [] -> Fmt.pf ppf "profile: no phases recorded@."
  | ps ->
      let total = List.fold_left (fun a p -> a +. p.p_wall) 0.0 ps in
      Fmt.pf ppf "profile (wall %.3fs total):@." total;
      List.iter
        (fun p ->
          if p.p_steps > 0 then
            Fmt.pf ppf "  %-20s %8.3fs %3.0f%%  %8d calls  %10d steps  %.3e steps/s@."
              p.p_name p.p_wall
              (if total > 0.0 then 100.0 *. p.p_wall /. total else 0.0)
              p.p_calls p.p_steps
              (if p.p_wall > 0.0 then float_of_int p.p_steps /. p.p_wall
               else 0.0)
          else
            Fmt.pf ppf "  %-20s %8.3fs %3.0f%%  %8d calls@." p.p_name p.p_wall
              (if total > 0.0 then 100.0 *. p.p_wall /. total else 0.0)
              p.p_calls)
        ps
