(** The evaluation sections the figure CLI prints, run end to end at quick
    scale with no cache: every expected row is printed, and no cell is the
    [-] hole a failed cell leaves. *)

module Figures = Smr_harness.Figures
module Registry = Smr_harness.Registry

let capture f =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  String.split_on_char '\n' (Buffer.contents buf)

let tokens line = List.filter (( <> ) "") (String.split_on_char ' ' line)

(* Every [key] starts some printed row, and no token is a hole. *)
let check_rows section lines keys =
  Alcotest.(check (list string))
    (section ^ ": every expected row is printed")
    []
    (List.filter
       (fun key ->
         not (List.exists (String.starts_with ~prefix:(key ^ " ")) lines))
       keys);
  Alcotest.(check (list string))
    (section ^ ": no failed cell")
    []
    (List.filter (fun line -> List.mem "-" (tokens line)) lines)

let test_drivers_complete () =
  let scale = Figures.Quick in
  let x86 = Registry.scheme_names Registry.X86 in
  check_rows "table1"
    (capture Figures.table1)
    (Registry.bench_scheme_names Registry.X86);
  check_rows "ablation"
    (capture (Figures.ablation ~scale))
    [ "33"; "64"; "128"; "256"; "1"; "8"; "32"; "dwcas"; "llsc" ];
  check_rows "breakdown" (capture (Figures.breakdown ~scale)) x86;
  check_rows "metrics"
    (capture (Figures.metrics ~scale))
    (List.map (fun n -> n ^ ":") x86);
  let sensitivity = capture (Figures.sensitivity ~scale) in
  check_rows "sensitivity" sensitivity
    [ "cheap-rmw (cas=2)"; "default  (cas=4)"; "dear-rmw (cas=10)" ];
  let header =
    List.find (String.starts_with ~prefix:"model ") sensitivity |> tokens
  in
  Alcotest.(check (list string))
    "sensitivity has one column per scheme"
    [ "model"; "Leaky"; "Epoch"; "HP"; "Hyaline"; "Hyaline-1" ]
    header

let suite =
  [ Alcotest.test_case "drivers-complete" `Quick test_drivers_complete ]
