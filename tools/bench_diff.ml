(** Diff two BENCH_simperf-style reports section by section.

    Usage: [bench_diff.exe BASELINE.json CANDIDATE.json [GATE ...]]

    Sections are matched by their ["name"] field; every numeric field
    present in both copies of a section is printed as
    [section.field: baseline -> candidate (ratio x)]. Sections present on
    only one side are listed, never an error — reports are allowed to
    grow.

    A [GATE] is [SECTION:FIELD:MAXRATIO], e.g.
    [retire:minor_words_per_op:1.1]: the candidate's value must be at
    most MAXRATIO times the baseline's, or the exit status is 1. This is
    how tools/check.sh pins the retire path's allocation budget to the
    committed baseline. A gate whose section or field is missing from
    either report also fails — a silently vanished measurement must not
    pass the gate it feeds. *)

module Json = Smr_harness.Json

let load path =
  try Json.of_string (Smr_harness.Executor.read_file path) with
  | Sys_error msg ->
      Printf.eprintf "bench_diff: %s\n" msg;
      exit 2
  | Json.Parse_error msg ->
      Printf.eprintf "bench_diff: %s: %s\n" path msg;
      exit 2

let sections j =
  match Json.member "sections" j with
  | Some (Json.List l) ->
      List.filter_map
        (fun s ->
          match Json.member "name" s with
          | Some (Json.String n) -> Some (n, s)
          | _ -> None)
        l
  | _ ->
      Printf.eprintf "bench_diff: report has no \"sections\" array\n";
      exit 2

let numeric = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let field_value secs section field =
  match List.assoc_opt section secs with
  | None -> None
  | Some s -> Option.bind (Json.member field s) numeric

type gate = { g_section : string; g_field : string; g_max_ratio : float }

let parse_gate spec =
  match String.split_on_char ':' spec with
  | [ s; f; r ] -> (
      match float_of_string_opt r with
      | Some ratio when ratio > 0.0 ->
          { g_section = s; g_field = f; g_max_ratio = ratio }
      | _ ->
          Printf.eprintf "bench_diff: bad ratio in gate %S\n" spec;
          exit 2)
  | _ ->
      Printf.eprintf
        "bench_diff: bad gate %S (expected SECTION:FIELD:MAXRATIO)\n" spec;
      exit 2

let () =
  let base_path, cand_path, gates =
    match Array.to_list Sys.argv with
    | _ :: b :: c :: rest -> (b, c, List.map parse_gate rest)
    | _ ->
        Printf.eprintf
          "usage: bench_diff.exe BASELINE.json CANDIDATE.json \
           [SECTION:FIELD:MAXRATIO ...]\n";
        exit 2
  in
  let base = sections (load base_path) in
  let cand = sections (load cand_path) in
  List.iter
    (fun (name, cs) ->
      match List.assoc_opt name base with
      | None -> Printf.printf "%-28s only in %s\n" name cand_path
      | Some bs ->
          List.iter
            (fun (field, cv) ->
              match numeric cv with
              | None -> ()
              | Some c -> (
                  match Option.bind (Json.member field bs) numeric with
                  | None -> ()
                  | Some b ->
                      Printf.printf "%-28s %14.4f -> %14.4f  (%s)\n"
                        (name ^ "." ^ field) b c
                        (if b = 0.0 then "n/a"
                         else Printf.sprintf "%.2fx" (c /. b))))
            (Json.to_obj cs))
    cand;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name cand) then
        Printf.printf "%-28s only in %s\n" name base_path)
    base;
  let failures =
    List.filter_map
      (fun g ->
        let where = g.g_section ^ "." ^ g.g_field in
        match
          ( field_value base g.g_section g.g_field,
            field_value cand g.g_section g.g_field )
        with
        | Some b, Some c ->
            if c <= b *. g.g_max_ratio then None
            else
              Some
                (Printf.sprintf "%s: %.4f > %.4f (baseline %.4f x %.2f)"
                   where c (b *. g.g_max_ratio) b g.g_max_ratio)
        | None, _ -> Some (where ^ ": missing from baseline " ^ base_path)
        | _, None -> Some (where ^ ": missing from candidate " ^ cand_path))
      gates
  in
  match failures with
  | [] -> if gates <> [] then print_endline "gates: all within bounds"
  | fs ->
      List.iter (fun f -> Printf.eprintf "gate FAILED: %s\n" f) fs;
      exit 1
