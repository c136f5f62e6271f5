(** Replayable counterexample traces.

    A trace file pins down everything needed to reproduce a violation
    found by {!Smr_runtime.Explore}: free-form metadata (scheme,
    structure, mode...), the fault plan, the schedule (one
    runnable-slot index per scheduling decision), and the failure
    message the schedule must reproduce. The format is line-based and
    diff-friendly:

    {v
    hyaline-trace v1
    meta scheme Epoch
    meta structure stack
    fault stall 0 24 -
    fault stall 1 1 24
    schedule 0 1 1 0 2
    message post-condition failed
    v} *)

module Explore = Smr_runtime.Explore

type t = {
  meta : (string * string) list;
  faults : Explore.fault list;
  schedule : int list;
  message : string;
}

let magic = "hyaline-trace v1"

(* Newlines would break the line-based format; messages are single-line
   in practice (exception printers), but escape defensively. *)
let escape s =
  String.concat "\\n" (String.split_on_char '\n' s)

let unescape s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && s.[!i] = '\\' && s.[!i + 1] = 'n' then begin
      Buffer.add_char b '\n';
      i := !i + 2
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let to_string t =
  let b = Buffer.create 256 in
  Buffer.add_string b magic;
  Buffer.add_char b '\n';
  List.iter
    (fun (k, v) ->
      if String.contains k ' ' then invalid_arg "Trace_file: meta key with space";
      Buffer.add_string b (Printf.sprintf "meta %s %s\n" k (escape v)))
    t.meta;
  List.iter
    (fun (f : Explore.fault) ->
      let action =
        match f.Explore.action with `Stall -> "stall" | `Kill -> "kill"
      in
      let resume =
        match f.Explore.resume_at with None -> "-" | Some r -> string_of_int r
      in
      Buffer.add_string b
        (Printf.sprintf "fault %s %d %d %s\n" action f.Explore.victim
           f.Explore.at_decision resume))
    t.faults;
  Buffer.add_string b
    ("schedule "
    ^ String.concat " " (List.map string_of_int t.schedule)
    ^ "\n");
  Buffer.add_string b ("message " ^ escape t.message ^ "\n");
  Buffer.contents b

exception Parse_error of string

let of_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> raise (Parse_error "empty trace")
  | first :: rest ->
      if String.trim first <> magic then
        raise (Parse_error ("bad magic: " ^ first));
      let meta = ref [] in
      let faults = ref [] in
      let schedule = ref [] in
      let message = ref "" in
      let int_of what s =
        match int_of_string_opt s with
        | Some n -> n
        | None -> raise (Parse_error (what ^ ": not an integer: " ^ s))
      in
      List.iter
        (fun line ->
          match String.index_opt line ' ' with
          | None -> raise (Parse_error ("malformed line: " ^ line))
          | Some i -> (
              let key = String.sub line 0 i in
              let payload =
                String.sub line (i + 1) (String.length line - i - 1)
              in
              match key with
              | "meta" -> (
                  match String.index_opt payload ' ' with
                  | None -> raise (Parse_error ("malformed meta: " ^ line))
                  | Some j ->
                      let k = String.sub payload 0 j in
                      let v =
                        String.sub payload (j + 1)
                          (String.length payload - j - 1)
                      in
                      meta := (k, unescape v) :: !meta)
              | "fault" -> (
                  match String.split_on_char ' ' payload with
                  | [ action; victim; at; resume ] ->
                      let action =
                        match action with
                        | "stall" -> `Stall
                        | "kill" -> `Kill
                        | other ->
                            raise (Parse_error ("unknown fault: " ^ other))
                      in
                      let resume_at =
                        if resume = "-" then None
                        else Some (int_of "fault resume" resume)
                      in
                      faults :=
                        {
                          Explore.victim = int_of "fault victim" victim;
                          at_decision = int_of "fault at" at;
                          action;
                          resume_at;
                        }
                        :: !faults
                  | _ -> raise (Parse_error ("malformed fault: " ^ line)))
              | "schedule" ->
                  schedule :=
                    String.split_on_char ' ' payload
                    |> List.filter (fun s -> s <> "")
                    |> List.map (int_of "schedule")
              | "message" -> message := unescape payload
              | other -> raise (Parse_error ("unknown line kind: " ^ other))))
        rest;
      {
        meta = List.rev !meta;
        faults = List.rev !faults;
        schedule = !schedule;
        message = !message;
      }

let save ~path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let load ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      of_string (really_input_string ic len))

let meta_value t k = List.assoc_opt k t.meta
