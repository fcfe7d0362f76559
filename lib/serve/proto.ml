module J = Trace.Json

type op =
  | Query of { client : string; engine : string; prune : bool; budget : int option }
  | Check of { checkers : string list; engine : string; prune : bool; budget : int option }
  | Edit of { edits : int; seed : int }
  | Stats
  | Shutdown

type request = { rq_id : J.t; rq_op : op }

let op_name = function
  | Query _ -> "query"
  | Check _ -> "check"
  | Edit _ -> "edit"
  | Stats -> "stats"
  | Shutdown -> "shutdown"

(* ----------------------------- decoding ----------------------------- *)

(* An absent field is [None]; a present one of the wrong type is a bad
   request naming the field, never silently replaced by a default. *)
let field k ~what conv j =
  match J.member k j with
  | None -> Ok None
  | Some v -> (
    match conv v with
    | Some x -> Ok (Some x)
    | None -> Error ("bad_request", Printf.sprintf "%S must be %s" k what))

let str k = field k ~what:"a string" (function J.String s -> Some s | _ -> None)
let int k = field k ~what:"an integer" (function J.Int i -> Some i | _ -> None)
let bool k = field k ~what:"a boolean" (function J.Bool b -> Some b | _ -> None)

let strings k =
  field k ~what:"a list of strings" (function
    | J.List xs ->
      List.fold_right
        (fun x acc -> match (x, acc) with J.String s, Some l -> Some (s :: l) | _ -> None)
        xs (Some [])
    | _ -> None)

let default d = Result.map (Option.value ~default:d)
let ( let* ) = Result.bind

let of_json j =
  match J.member "op" j with
  | None -> Error ("bad_request", "missing \"op\"")
  | Some (J.String opname) -> (
    let id = Option.value ~default:J.Null (J.member "id" j) in
    let mk op = Ok { rq_id = id; rq_op = op } in
    let engine_conf () =
      let* engine = str "engine" j |> default "dynsum" in
      let* prune = bool "prune" j |> default false in
      let* budget = int "budget" j in
      Ok (engine, prune, budget)
    in
    match opname with
    | "query" -> (
      let* client = str "client" j in
      let* engine, prune, budget = engine_conf () in
      match client with
      | None -> Error ("bad_request", "query needs a \"client\"")
      | Some client -> mk (Query { client; engine; prune; budget }))
    | "check" ->
      let* checkers = strings "checkers" j |> default [] in
      let* engine, prune, budget = engine_conf () in
      mk (Check { checkers; engine; prune; budget })
    | "edit" ->
      let* edits = int "edits" j |> default 8 in
      let* seed = int "seed" j |> default 1 in
      mk (Edit { edits; seed })
    | "stats" -> mk Stats
    | "shutdown" -> mk Shutdown
    | other -> Error ("bad_request", Printf.sprintf "unknown op %S" other))
  | Some _ -> Error ("bad_request", "\"op\" must be a string")

let of_line line =
  match J.of_string line with
  | Error msg -> Error ("parse_error", msg)
  | Ok j -> of_json j

(* ----------------------------- encoding ----------------------------- *)

let ok ~id ~op fields =
  J.Obj (("id", id) :: ("ok", J.Bool true) :: ("op", J.String op) :: fields)

let error ~id code msg =
  J.Obj
    [
      ("id", id);
      ("ok", J.Bool false);
      ("error", J.Obj [ ("code", J.String code); ("msg", J.String msg) ]);
    ]
