module Check = Pts_clients.Check
module Client = Pts_clients.Client
module Pipeline = Pts_clients.Pipeline
module Stats = Pts_util.Stats
module J = Trace.Json

(* The same four query-set clients [ptsto client -c] exposes, so a serve
   [query] request and a one-shot CLI run answer from identical query
   lists (byte-identity between the two is an acceptance gate). *)
let clients =
  [
    ("safecast", ("SafeCast", Pts_clients.Safecast.queries));
    ("nullderef", ("NullDeref", Pts_clients.Nullderef.queries));
    ("factorym", ("FactoryM", Pts_clients.Factorym.queries));
    ("devirt", ("Devirt", Pts_clients.Devirt.queries));
  ]

type config = {
  c_jobs : int;
  c_budget : int;
  c_max_budget : int;
  c_base_capacity : int;
  c_max_cost : int;
}

let default_config =
  {
    c_jobs = 1;
    c_budget = Conf.default.Conf.budget_limit;
    c_max_budget = 0;
    c_base_capacity = 0;
    c_max_cost = 0;
  }

type t = {
  cfg : config;
  pl : Pipeline.t;
  checkers : Check.checker list;
  base : Dynsum.base;
  incr : Incr.t;
  trace : Trace.sink;
  counts : Stats.t;
  mutable latencies_us : int list; (* per served request, newest first *)
  mutable shutdown : bool;
}

let create ?(config = default_config) ?(trace = Trace.null) ~checkers pl =
  let base = Dynsum.base_create ~capacity:config.c_base_capacity () in
  let incr = Incr.create pl.Pipeline.pag in
  Incr.register_base incr base;
  {
    cfg = config;
    pl;
    checkers;
    base;
    incr;
    trace;
    counts = Stats.create ();
    latencies_us = [];
    shutdown = false;
  }

let base = (fun t -> t.base : t -> Dynsum.base)
let shutting_down t = t.shutdown

let find_checker t name =
  let want = String.lowercase_ascii name in
  List.find_opt (fun ck -> String.lowercase_ascii ck.Check.ck_name = want) t.checkers

(* Read-time cost estimate for [c_max_cost]: the same per-node Andersen
   prediction that seeds the work-stealing deques, summed over the
   request's query roots. Requests the daemon will reject anyway (unknown
   client/engine) predict 0 and fail later with a better error. *)
let predicted_cost t rq =
  let sum_nodes ~prune nodes =
    List.fold_left (fun acc n -> acc + Costmodel.predict ~prune t.pl.Pipeline.pag n) 0 nodes
  in
  match rq.Proto.rq_op with
  | Proto.Query { client; prune; _ } -> (
    match List.assoc_opt client clients with
    | None -> 0
    | Some (_, queries_of) ->
      sum_nodes ~prune (List.map (fun q -> q.Client.q_node) (queries_of t.pl)))
  | Proto.Check { checkers = names; prune; _ } ->
    let cks =
      if names = [] then t.checkers else List.filter_map (find_checker t) names
    in
    (* dedup like the check driver: each unique node is answered once *)
    let seen = Hashtbl.create 64 in
    List.iter
      (fun ck ->
        List.iter
          (fun q -> Hashtbl.replace seen q.Client.q_node ())
          (Check.queries_of t.pl ck))
      cks;
    sum_nodes ~prune (Hashtbl.fold (fun n () acc -> n :: acc) seen [])
  | Proto.Edit _ | Proto.Stats | Proto.Shutdown -> 0

(* ----------------------------- handlers ----------------------------- *)

let base_json t =
  J.Obj
    [
      ("size", J.Int (Dynsum.base_length t.base));
      ("capacity", J.Int (Dynsum.base_capacity t.base));
      ("hits", J.Int (Dynsum.base_hits t.base));
      ("misses", J.Int (Dynsum.base_misses t.base));
      ("evictions", J.Int (Dynsum.base_evictions t.base));
    ]

let budget_of t = function
  | None -> Ok t.cfg.c_budget
  | Some b when b <= 0 -> Error ("bad_request", "budget must be positive")
  | Some b when t.cfg.c_max_budget > 0 && b > t.cfg.c_max_budget ->
    Error
      ( "budget_too_large",
        Printf.sprintf "budget %d exceeds the per-request ceiling %d" b t.cfg.c_max_budget )
  | Some b -> Ok b

(* Derived from the registry so a newly registered engine (e.g. supa) is
   accepted — and listed in rejections — without touching the daemon. *)
let check_engine name =
  if Engine.find name = None then
    Error
      ( "bad_request",
        Printf.sprintf "unknown engine %S (registered: %s)" name
          (String.concat ", " (Engine.names ())) )
  else Ok ()

let ( let* ) r f = match r with Error (c, m) -> Error (c, m) | Ok v -> f v

let run_query t ~client ~engine ~prune ~budget =
  let* () = check_engine engine in
  let* budget_limit = budget_of t budget in
  let* cname, queries_of =
    match List.assoc_opt client clients with
    | None -> Error ("bad_request", Printf.sprintf "unknown client %S" client)
    | Some c -> Ok c
  in
  let verdicts, r =
    Client.answer ~conf:(Engine.conf ~budget_limit ~prune ()) ~jobs:t.cfg.c_jobs
      ~base:t.base ~engine t.pl.Pipeline.pag (queries_of t.pl)
  in
  Ok
    [
      ("engine", J.String engine);
      ("epoch", J.Int (Pag.epoch t.pl.Pipeline.pag));
      ("verdicts", Client.verdicts_json ~client:cname verdicts);
      ("steps", J.Int (Array.fold_left ( + ) 0 r.Parsolve.actual_steps));
      ("wall_seconds", J.Float r.Parsolve.wall_seconds);
      ("base", base_json t);
    ]

let run_check t ~names ~engine ~prune ~budget =
  let* () = check_engine engine in
  let* budget_limit = budget_of t budget in
  let* checkers =
    if names = [] then Ok t.checkers
    else
      List.fold_left
        (fun acc n ->
          let* acc = acc in
          match find_checker t n with
          | Some ck -> Ok (ck :: acc)
          | None -> Error ("bad_request", Printf.sprintf "unknown checker %S" n))
        (Ok []) names
      |> Result.map List.rev
  in
  let opts =
    {
      Check.o_engine = engine;
      o_conf = Engine.conf ~budget_limit ~prune ();
      o_jobs = t.cfg.c_jobs;
      o_base = Some t.base;
    }
  in
  let report = Check.run ~opts ~checkers t.pl in
  Ok
    [
      ("engine", J.String engine);
      ("epoch", J.Int (Pag.epoch t.pl.Pipeline.pag));
      ("report", Check.report_json report);
      ("points", J.Int report.Check.r_points);
      ("unique_nodes", J.Int report.Check.r_unique_nodes);
      ("seconds", J.Float report.Check.r_seconds);
      ("base", base_json t);
    ]

(* The burst is generated in full before it is applied, so its size is
   bounded by the graph: no burst can need more edits than the PAG has
   edges. *)
let run_edit t ~edits ~seed =
  let c = Pag.edge_counts t.pl.Pipeline.pag in
  let edges =
    c.Pag.n_new + c.Pag.n_assign + c.Pag.n_load + c.Pag.n_store + c.Pag.n_entry + c.Pag.n_exit
    + c.Pag.n_assign_global
  in
  if edits <= 0 then Error ("bad_request", "edits must be positive")
  else if edits > edges then
    Error ("bad_request", Printf.sprintf "edits %d exceeds the PAG's %d edges" edits edges)
  else begin
    let rng = Pts_util.Prng.create seed in
    let burst = Pts_workload.Editscript.burst rng t.pl.Pipeline.pag ~n:edits in
    let st = Incr.apply t.incr burst in
    Ok
      [
        ("epoch", J.Int st.Incr.i_epoch);
        ("dirty", J.Int st.Incr.i_dirty);
        ("inserted", J.Int st.Incr.i_inserted);
        ("deleted", J.Int st.Incr.i_deleted);
        ("oracle_invalidated", J.Int st.Incr.i_oracle_invalidated);
        ("summaries_dropped", J.Int st.Incr.i_dropped);
        ("summaries_retained", J.Int st.Incr.i_retained);
        ("base", base_json t);
      ]
  end

(* Nearest-rank percentile over the recorded per-request latencies. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else begin
    let rank = int_of_float (ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

let latency_json t =
  let a = Array.of_list t.latencies_us in
  Array.sort compare a;
  J.Obj
    [
      ("count", J.Int (Array.length a));
      ("p50_micros", J.Int (percentile a 0.50));
      ("p99_micros", J.Int (percentile a 0.99));
    ]

let run_stats t =
  let get k = Stats.get t.counts k in
  Ok
    [
      ("epoch", J.Int (Pag.epoch t.pl.Pipeline.pag));
      ( "requests",
        J.Obj
          [
            ("query", J.Int (get "req_query"));
            ("check", J.Int (get "req_check"));
            ("edit", J.Int (get "req_edit"));
            ("stats", J.Int (get "req_stats"));
            ("shutdown", J.Int (get "req_shutdown"));
          ] );
      ( "admission",
        J.Obj
          [
            ("rejected_parse_error", J.Int (get "rejected_parse_error"));
            ("rejected_bad_request", J.Int (get "rejected_bad_request"));
            ("rejected_budget_too_large", J.Int (get "rejected_budget_too_large"));
            ("rejected_oversized", J.Int (get "rejected_oversized"));
            ("max_request_cost", J.Int t.cfg.c_max_cost);
          ] );
      ("base", base_json t);
      ("latency", latency_json t);
    ]

let dispatch t = function
  | Proto.Query { client; engine; prune; budget } -> run_query t ~client ~engine ~prune ~budget
  | Proto.Check { checkers; engine; prune; budget } ->
    run_check t ~names:checkers ~engine ~prune ~budget
  | Proto.Edit { edits; seed } -> run_edit t ~edits ~seed
  | Proto.Stats -> run_stats t
  | Proto.Shutdown ->
    t.shutdown <- true;
    Ok [ ("base", base_json t) ]

(* Every refusal — undecodable, over the cost guard, or refused by its
   handler — is counted under its error code, and only there. *)
let refuse t ~id code msg =
  Stats.bump t.counts ("rejected_" ^ code);
  Proto.error ~id code msg

let handle t rq =
  let id = rq.Proto.rq_id and op = Proto.op_name rq.Proto.rq_op in
  match Stats.time (fun () -> dispatch t rq.Proto.rq_op) with
  | Error (code, msg), _ -> refuse t ~id code msg
  | Ok fields, seconds ->
    let micros = int_of_float (seconds *. 1e6) in
    t.latencies_us <- micros :: t.latencies_us;
    Stats.bump t.counts ("req_" ^ op);
    Trace.emit t.trace (Trace.Request_latency { engine = "serve"; op; micros });
    Proto.ok ~id ~op fields

(* --------------------------- transport loop -------------------------- *)

let respond oc j =
  output_string oc (J.to_string j);
  output_char oc '\n';
  flush oc

(* [c_max_cost] guards the loop against outside requests too dear to
   answer: checked after decoding, before anything runs. *)
let oversized t rq =
  if t.cfg.c_max_cost <= 0 then None
  else
    let cost = predicted_cost t rq in
    if cost <= t.cfg.c_max_cost then None
    else
      Some
        (Printf.sprintf "predicted cost %d exceeds the per-request ceiling %d" cost t.cfg.c_max_cost)

let serve_channel t ic oc =
  let rec loop () =
    if not t.shutdown then
      match input_line ic with
      | exception End_of_file -> ()
      | "" -> loop ()
      | line ->
        respond oc
          (match J.of_string line with
          | Error msg -> refuse t ~id:J.Null "parse_error" msg
          | Ok j -> (
            (* a request that parses but does not decode still gets its id *)
            match Proto.of_json j with
            | Error (code, msg) ->
              refuse t ~id:(Option.value ~default:J.Null (J.member "id" j)) code msg
            | Ok rq -> (
              match oversized t rq with
              | Some msg -> refuse t ~id:rq.Proto.rq_id "oversized" msg
              | None -> handle t rq)));
        loop ()
  in
  loop ()

let serve_socket t path =
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Unix.bind srv (Unix.ADDR_UNIX path);
  Unix.listen srv 8;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close srv with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      (* one connection at a time: accept, serve its stream to EOF (or a
         shutdown request), loop. Concurrency lives in the engine layer
         (jobs), not the transport. *)
      while not t.shutdown do
        let fd, _ = Unix.accept srv in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        (try serve_channel t ic oc with End_of_file | Sys_error _ -> ());
        (try flush oc with Sys_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ()
      done)
