(** The machine-checked outcome of a verdict sweep: named checks, each
    passed or failed with a human-readable detail, and their conjunction.
    Every {!Scenario} judge returns one; the artifact envelope carries it
    and the driver's exit status is [ok]. *)

type t = { ok : bool; checks : (string * bool * string) list }

(** [ok] is the conjunction of the checks; an empty list never holds. *)
let of_checks checks =
  { ok = checks <> [] && List.for_all (fun (_, b, _) -> b) checks; checks }

let to_json v =
  Json.Obj
    [
      ("ok", Json.Bool v.ok);
      ( "checks",
        Json.List
          (List.map
             (fun (name, b, detail) ->
               Json.Obj
                 [
                   ("name", Json.String name);
                   ("ok", Json.Bool b);
                   ("detail", Json.String detail);
                 ])
             v.checks) );
    ]

let of_json j =
  let open Json in
  {
    ok = to_bool (member_exn "ok" j);
    checks =
      List.map
        (fun c ->
          ( to_str (member_exn "name" c),
            to_bool (member_exn "ok" c),
            to_str (member_exn "detail" c) ))
        (to_list (member_exn "checks" j));
  }

(* One summary line, then one line per check. *)
let pp ppf v =
  let passed = List.filter (fun (_, b, _) -> b) v.checks in
  Fmt.pf ppf "%s (%d/%d checks)"
    (if v.ok then "ok" else "FAIL")
    (List.length passed) (List.length v.checks);
  List.iter
    (fun (name, b, detail) ->
      Fmt.pf ppf "@.  %-4s %s: %s" (if b then "ok" else "FAIL") name detail)
    v.checks
