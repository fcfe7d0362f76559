(* serve-read and serve-edit: one daemon over tainted jython, driven by a
   closed loop with one client — each request line is sent only after
   the previous response is encoded. Requests come in rounds: a round is
   a fixed multiset of query ops (the four query-set clients) and
   single-checker check ops, on dynsum and supa, in a seeded order.
   serve-edit adds a 4-edge edit burst after every ninth op, so every
   tenth request is an edit. *)

module Check = Pts_clients.Check
module Client = Pts_clients.Client
module Pipeline = Pts_clients.Pipeline
module Daemon = Pts_serve.Daemon
module Proto = Pts_serve.Proto
module Prng = Pts_util.Prng
module Stats = Pts_util.Stats
module J = Trace.Json

let program = "jython"
let setup_reps = 15
let edit_after = 9
let edit_size = 4
let canary_bursts = 3
let pass_every = 0.25

(* Four rounds hold at least 208 requests, so the tail is always p95, with
   at least 10 samples beyond it. p99 would need 1000; capping at p95
   keeps the percentile the same however many rounds a run manages. *)
let min_rounds = 4

(* Byte-equal, or equal once budget-Unknown answers are set aside on
   both sides: a warm daemon can resolve within its budget a query that
   a cold pipeline cannot, and the reverse. Unknowns never fail a run;
   they are counted in unresolved_frac. Applies to a verdicts object
   (refuted descriptions, with every Unknown description removed) and to
   a check report (findings, with every location that is unresolved on
   either side removed). *)
let same_answers got want =
  match got with
  | None -> false
  | Some got when String.equal got want -> true
  | Some got -> (
    match (J.of_string got, J.of_string want) with
    | Ok g, Ok w -> (
      let strs k j =
        match J.member k j with
        | Some (J.List l) -> List.filter_map (function J.String s -> Some s | _ -> None) l
        | _ -> []
      in
      match (J.member "findings" g, J.member "findings" w) with
      | Some (J.List fg), Some (J.List fw) ->
        let str k f = match J.member k f with Some (J.String s) -> s | _ -> "" in
        let loc f = (str "checker" f, str "method" f, J.member "line" f) in
        let blurred =
          List.map loc (List.filter (fun f -> Sweep.has_unresolved_suffix (str "message" f)) (fg @ fw))
        in
        let keep = List.filter (fun f -> not (List.mem (loc f) blurred)) in
        List.equal (fun a b -> String.equal (J.to_string a) (J.to_string b)) (keep fg) (keep fw)
      | _ ->
        let unknown = strs "unknown" g @ strs "unknown" w in
        let refuted j = List.filter (fun d -> not (List.mem d unknown)) (strs "refuted" j) in
        J.member "queries" g = J.member "queries" w && refuted g = refuted w)
    | _ -> false)

type kind = Query of string * string | Check_op of string * string (* name, engine *)

(* One round of 52 ops. Per engine, 20 query ops in the 60/25/10/5
   client skew of the repo's serve throughput bench (safecast, nullderef,
   factorym, devirt) and one check op per checker. No traffic trace backs
   the rest: the even split between dynsum and supa and the 12-in-52
   share of check ops are assumed, not measured. The seed orders every
   serve-read round and every warm-up round; it never changes what a
   round holds. *)
let skew = [ (12, "safecast"); (5, "nullderef"); (2, "factorym"); (1, "devirt") ]
let checker_names = [ "NullDeref"; "taint"; "SafeCast"; "Devirt"; "FactoryM"; "deadcode" ]

let mix =
  List.concat_map
    (fun engine ->
      List.map (fun (w, client) -> (w, Query (client, engine))) skew
      @ List.map (fun name -> (1, Check_op (name, engine))) checker_names)
    [ "dynsum"; "supa" ]

(* The five burst seeds of a serve-edit round, one burst after every
   ninth op. They are the same for every run seed, and so is the round's
   order: one 4-edge burst can make the whole graph several times dearer
   to query, so seeded bursts or orders made runs incomparable. Burst 30
   is the dearest of seeds 1-60: it takes a warm dynsum nullderef query
   from about 100 ms to about 370 ms, so the second half of every round
   runs in that regime (see README.md). The seed draws the canary bursts
   instead, which are applied after the timed phase and checked like the
   others. *)
let round_bursts = [| 1; 2; 30; 4; 5 |]

let round rng =
  let ops = Array.of_list (List.concat_map (fun (w, k) -> List.init w (fun _ -> k)) mix) in
  Prng.shuffle rng ops;
  ops

type request = Op of kind | Edit of int (* burst seed *)

let line id = function
  | Op (Query (client, engine)) ->
    Printf.sprintf {|{"op":"query","client":%S,"engine":%S,"id":%d}|} client engine id
  | Op (Check_op (checker, engine)) ->
    Printf.sprintf {|{"op":"check","checkers":[%S],"engine":%S,"id":%d}|} checker engine id
  | Edit seed -> Printf.sprintf {|{"op":"edit","edits":%d,"seed":%d,"id":%d}|} edit_size seed id

let kind_name = function
  | Op (Query (c, e)) -> "query " ^ c ^ "/" ^ e
  | Op (Check_op (c, e)) -> "check " ^ c ^ "/" ^ e
  | Edit _ -> "edit"

(* The suite's jython with the sweep's taint counts; the same program
   for every seed. *)
let source () =
  Pts_workload.Genprog.generate (Pts_workload.Suite.tainted ~flows:6 ~clean:6 ~kill:4 ~weak:4 program)

let fresh_pipeline src = Pipeline.of_program (Frontend.compile src)
let checkers_for src = Pts_taint.Registry.all ~taint:(Pts_taint.Spec.of_source src) ()

(* Source text -> ready daemon, the same calls [ptsto serve] makes. *)
let setup sp src =
  Spans.record sp "setup" (fun () ->
      let prog = Spans.record sp "frontend" (fun () -> Frontend.compile src) in
      let pl = Spans.record sp "andersen" (fun () -> Pipeline.of_program prog) in
      let checkers = checkers_for src in
      (pl, Spans.record sp "daemon.create" (fun () -> Daemon.create ~checkers pl)))

let conf = Engine.conf ~budget_limit:Daemon.default_config.Daemon.c_budget ~prune:false ()

(* What a fresh pipeline answers for one request kind: the one-shot
   CLI's verdicts object or check report, as bytes. *)
let reference pl checkers = function
  | Query (client, engine) ->
    let cname, queries_of = List.assoc client Daemon.clients in
    let e = Engine.create ~conf engine pl.Pipeline.pag in
    let verdicts =
      List.map
        (fun q -> (q, Client.verdict_of q.Client.q_pred (e.Engine.points_to ~satisfy:q.Client.q_pred q.Client.q_node)))
        (queries_of pl)
    in
    J.to_string (Client.verdicts_json ~client:cname verdicts)
  | Check_op (name, engine) ->
    let ck = Option.get (Pts_taint.Registry.find checkers name) in
    let opts = { Check.default_opts with Check.o_engine = engine; o_conf = conf } in
    J.to_string (Check.report_json (Check.run ~opts ~checkers:[ ck ] pl))

let member_string k j = Option.map J.to_string (J.member k j)

(* What the benchmark keeps of a response: a few counts, so that holding
   a run's samples does not hold its response trees. *)
type facts = {
  steps : int;
  queries : int;  (** verdict queries of a query op *)
  unknown : int;  (** budget-Unknown verdicts of a query op *)
  points : int;  (** check points of a check op *)
  unique : int;
  unresolved : int;  (** budget-exceeded findings of a check op *)
  batch_ms : float;
  report_bytes : int;
  dirty : int;
  oracle_invalidated : int;
  retained : int;
  dropped : int;
}

let facts resp =
  let rec at path j =
    match path with [] -> Some j | k :: rest -> Option.bind (J.member k j) (at rest)
  in
  let int path = match at path resp with Some (J.Int i) -> i | _ -> 0 in
  let len path = match at path resp with Some (J.List l) -> List.length l | _ -> 0 in
  let unresolved =
    match at [ "report"; "findings" ] resp with
    | Some (J.List fs) ->
      List.length
        (List.filter
           (fun f ->
             match J.member "message" f with Some (J.String m) -> Sweep.has_unresolved_suffix m | _ -> false)
           fs)
    | _ -> 0
  in
  {
    steps = int [ "steps" ];
    queries = int [ "verdicts"; "queries" ];
    unknown = len [ "verdicts"; "unknown" ];
    points = int [ "points" ];
    unique = int [ "unique_nodes" ];
    unresolved;
    batch_ms = (match J.member "wall_seconds" resp with Some (J.Float f) -> f *. 1000.0 | _ -> 0.0);
    report_bytes = (match member_string "report" resp with Some r -> String.length r | None -> 0);
    dirty = int [ "dirty" ];
    oracle_invalidated = int [ "oracle_invalidated" ];
    retained = int [ "summaries_retained" ];
    dropped = int [ "summaries_dropped" ];
  }

type sample = {
  s_req : request;
  s_lat : float;  (** decode + handle + encode, seconds at the reference speed *)
  s_raw : float;  (** the same, as measured *)
  s_segment : int;  (** calibration segment *)
  s_round : int;
  s_handle : float;
  s_traced : bool;
  s_bytes : int;
  s_after_edit : bool;
  s_facts : facts;
}

let run ~edits ~seed ~seconds ~traced =
  let src = source () in
  let sp = Spans.create ~on:traced in
  let off = Spans.create ~on:false in
  let mismatches = ref [] in
  let mismatch fmt = Printf.ksprintf (fun m -> mismatches := m :: !mismatches) fmt in
  (* set-up, several times, keeping none of the daemons, then the daemon
     under test: at most one pipeline is live at a time, as in a
     [ptsto serve] process *)
  let calib = Calib.create () in
  let setup_times =
    List.init setup_reps (fun _ ->
        Gc.compact ();
        let t0 = Unix.gettimeofday () in
        ignore (setup sp src);
        let dt = Unix.gettimeofday () -. t0 in
        let seg = Calib.segment calib in
        Calib.boundary calib;
        (dt, seg))
  in
  Gc.compact ();
  let current = ref (Some (setup off src)) in
  let setup_peak = Metrics.peak_mem_mb () -. Calib.footprint_mb calib in
  let rng = Prng.create ((seed * 2654435761) + if edits then 17 else 0) in
  let sample_rng = Prng.split rng in
  let tally = Metrics.tally () in
  let samples = ref [] in
  let checked = ref [] (* (kind, bytes) of the seeded sample *) in
  let bursts = ref [] (* edit seeds applied to the current daemon, newest first *) in
  let rounds = ref 0 in
  let n = ref 0 in
  let after_edit = ref false in
  (* request seconds since the last reference pass *)
  let since_pass = ref 0.0 in
  let tier = Array.make 3 0 (* hits, misses, evictions over the timed rounds *) in
  let serve ~timed rec_ tracing rq =
    let d = snd (Option.get !current) in
    let text = line !n rq in
    let t0 = Unix.gettimeofday () in
    let outcome =
      Spans.record rec_ ~req:(string_of_int !n) "request" (fun () ->
          match Spans.record rec_ "serve.decode" (fun () -> Proto.of_line text) with
          | Error (code, msg) -> Error (code ^ ": " ^ msg)
          | Ok r -> (
            let h0 = Unix.gettimeofday () in
            match Spans.record rec_ "serve.handle" (fun () -> Daemon.handle d r) with
            | exception e -> Error (Printexc.to_string e)
            | resp ->
              let handle = Unix.gettimeofday () -. h0 in
              let out = Spans.record rec_ "serve.encode" (fun () -> J.to_string resp) in
              Ok (resp, out, handle)))
    in
    let lat = Unix.gettimeofday () -. t0 in
    (match outcome with
    | Error msg ->
      Metrics.attempt tally false;
      mismatch "request %d raised %s" !n msg
    | Ok (resp, out, handle) ->
      let ok = J.member "ok" resp = Some (J.Bool true) in
      Metrics.attempt tally ok;
      if not ok then mismatch "request %d failed: %s" !n out;
      if timed then
        samples :=
          {
            s_req = rq;
            s_lat = lat (* scaled once the run is over *);
            s_raw = lat;
            s_segment = Calib.segment calib;
            s_round = !rounds;
            s_handle = handle;
            s_traced = tracing;
            s_bytes = String.length out;
            s_after_edit = !after_edit;
            s_facts = facts resp;
          }
          :: !samples;
      (match rq with
      | Edit s -> bursts := s :: !bursts
      | Op k ->
        if (not edits) && ok && Prng.chance sample_rng 0.1 then
          let body = match k with Query _ -> "verdicts" | Check_op _ -> "report" in
          checked := (k, member_string body resp) :: !checked));
    after_edit := (match rq with Edit _ -> true | Op _ -> false);
    incr n;
    (* a reference pass after each quarter second of requests *)
    since_pass := !since_pass +. lat;
    if !since_pass >= pass_every then begin
      Calib.boundary calib;
      since_pass := 0.0
    end
  in
  let serve_round ~timed ~edits rec_ tracing =
    let base = Daemon.base (snd (Option.get !current)) in
    let before = [| Dynsum.base_hits base; Dynsum.base_misses base; Dynsum.base_evictions base |] in
    Array.iteri
      (fun i k ->
        serve ~timed rec_ tracing (Op k);
        if edits && (i + 1) mod edit_after = 0 then
          serve ~timed rec_ tracing (Edit round_bursts.(((i + 1) / edit_after) - 1)))
      (round (if edits then Prng.create 0 else rng));
    Calib.boundary calib;
    since_pass := 0.0;
    if timed then
      Array.iteri
        (fun i now -> tier.(i) <- tier.(i) + now - before.(i))
        [| Dynsum.base_hits base; Dynsum.base_misses base; Dynsum.base_evictions base |]
  in
  (* A session starts from a daemon over the unedited program, and one
     untimed round without edits fills its cross-request tier, as a
     daemon's first minutes would; warm-up responses are still checked.
     serve-read serves every timed round in one session. serve-edit
     starts a new session for every timed round, so each round applies
     the same five bursts to the same graphs, however many rounds a run
     manages: without the restart the graph drifts further the faster
     the machine runs. *)
  let start_session ~fresh =
    if fresh then begin
      (* drop the edited daemon before building the next one *)
      current := None;
      Gc.compact ();
      current := Some (setup off src)
    end;
    bursts := [];
    serve_round ~timed:false ~edits:false off false
  in
  let deadline = Unix.gettimeofday () +. seconds in
  start_session ~fresh:false;
  (* whole rounds only, at least [min_rounds]; a traced run traces every other
     round, so both halves hold the same requests and the tracing
     overhead is measured within the run *)
  while !rounds < min_rounds || Unix.gettimeofday () < deadline do
    if edits && !rounds > 0 then start_session ~fresh:true;
    let tracing = traced && !rounds mod 2 = 1 in
    serve_round ~timed:true ~edits (if tracing then sp else off) tracing;
    incr rounds
  done;
  let pl, d = Option.get !current in
  (* the process's peak without the reference graphs, which stay
     resident from the start *)
  let peak_mem = Metrics.peak_mem_mb () -. Calib.footprint_mb calib in
  (* times at the reference speed *)
  let scale = Calib.scale calib in
  let setup_times = List.map (fun (dt, seg) -> dt *. scale seg) setup_times in
  let samples = List.rev_map (fun s -> { s with s_lat = s.s_raw *. scale s.s_segment }) !samples in
  (* A round's time is the sum of its request times, so the benchmark's
     own bookkeeping between requests is not part of it. *)
  let n_rounds = !rounds in
  let round_time f =
    List.init n_rounds (fun r -> List.fold_left (fun a s -> if s.s_round = r then a +. f s else a) 0.0 samples)
  in
  let rounds = round_time (fun s -> s.s_lat) and raw_rounds = round_time (fun s -> s.s_raw) in
  let phase = List.fold_left ( +. ) 0.0 rounds in
  (* correctness, outside the timed phase *)
  let check_t0 = Unix.gettimeofday () in
  let rpl = fresh_pipeline src in
  let rcheckers = checkers_for src in
  if not edits then begin
    let memo = Hashtbl.create 16 in
    List.iter
      (fun (k, got) ->
        let want =
          match Hashtbl.find_opt memo k with
          | Some w -> w
          | None ->
            let w = reference rpl rcheckers k in
            Hashtbl.add memo k w;
            w
        in
        if not (same_answers got want) then
          mismatch "serve-read: a %s response differs from a fresh pipeline"
            (kind_name (Op k)))
      !checked
  end
  else begin
    (* The seeded canary bursts: unseen edits, applied after the timed
       phase and checked with everything before them. *)
    for _ = 1 to canary_bursts do
      match Proto.of_line (line (-1) (Edit (Prng.int rng 1_000_000))) with
      | Ok ({ Proto.rq_op = Proto.Edit { seed = s; _ }; _ } as rq) ->
        let ok = J.member "ok" (Daemon.handle d rq) = Some (J.Bool true) in
        Metrics.attempt tally ok;
        if not ok then mismatch "canary burst %d failed" s;
        bursts := s :: !bursts
      | _ -> mismatch "canary burst request did not decode"
    done;
    (* Replay every burst on a from-scratch pipeline, as Editlab does, and
       require the same graph and byte-equal final answers. *)
    List.iter
      (fun s ->
        ignore
          (Pag.apply_edits rpl.Pipeline.pag
             (Pts_workload.Editscript.burst (Prng.create s) rpl.Pipeline.pag ~n:edit_size)))
      (List.rev !bursts);
    if Pag.graph_hash pl.Pipeline.pag <> Pag.graph_hash rpl.Pipeline.pag
       || Pag.epoch pl.Pipeline.pag <> Pag.epoch rpl.Pipeline.pag
    then mismatch "serve-edit: graph after %d bursts differs from the rebuild" (List.length !bursts);
    let final k =
      let rq = match Proto.of_line (line (-1) (Op k)) with Ok r -> r | Error (_, m) -> failwith m in
      let resp = Daemon.handle d rq in
      member_string (match k with Query _ -> "verdicts" | Check_op _ -> "report") resp
    in
    List.iter
      (fun k ->
        if not (same_answers (final k) (reference rpl rcheckers k)) then
          mismatch "serve-edit: final %s differs from the rebuild" (kind_name (Op k)))
      (List.sort_uniq compare (List.map snd mix))
  end;
  let check_s = Unix.gettimeofday () -. check_t0 in
  (* metrics *)
  let fi = float_of_int in
  let lats = List.map (fun s -> s.s_lat) samples in
  let untraced = List.filter (fun s -> not s.s_traced) samples in
  let traced_s = List.filter (fun s -> s.s_traced) samples in
  let med f l = Metrics.median (List.map f l) in
  let is_edit s = match s.s_req with Edit _ -> true | Op _ -> false in
  let edits_l = List.filter is_edit samples in
  let ops = List.filter (fun s -> not (is_edit s)) samples in
  let queries = List.filter (fun s -> match s.s_req with Op (Query _) -> true | _ -> false) samples in
  let checks = List.filter (fun s -> match s.s_req with Op (Check_op _) -> true | _ -> false) samples in
  let tail = Metrics.tail ~cap:0.95 lats in
  let spans = Spans.spans sp in
  let self_med name = Metrics.median (List.map fst (Spans.by_name spans name)) in
  let mwords_med name = Metrics.median (List.map snd (Spans.by_name spans name)) /. 1e6 in
  let hits = tier.(0) and misses = tier.(1) in
  let f = List.map (fun s -> s.s_facts) in
  let sumf g l = List.fold_left (fun a x -> a + g x) 0 (f l) in
  let retained = sumf (fun x -> x.retained) edits_l and dropped = sumf (fun x -> x.dropped) edits_l in
  let unknown = sumf (fun x -> x.unknown) queries in
  let issued = sumf (fun x -> x.queries) queries + sumf (fun x -> x.points) checks in
  let unresolved_findings = sumf (fun x -> x.unresolved) checks in
  let sv = Pts_andersen.Solver.stats pl.Pipeline.solver in
  let e = Pag.edge_counts pl.Pipeline.pag in
  let points = sumf (fun x -> x.points) checks and uniq = sumf (fun x -> x.unique) checks in
  let medf g l = Metrics.median (List.map g (f l)) in
  let values =
    [
      ("sweep_s", Metrics.median rounds);
      ("setup_s", Metrics.median setup_times);
      ("latency_p50_ms", Metrics.median lats *. 1000.0);
      ("latency_tail_ms", (match tail with Some (_, v) -> v | None -> nan) *. 1000.0);
      ("throughput_rps", fi (List.length samples) /. phase);
      ("peak_mem_mb", peak_mem);
      ("unresolved_frac", Metrics.ratio (unknown + unresolved_findings) issued);
      ("error_frac", Metrics.failure_frac tally);
      ("frontend.ms", self_med "frontend" *. 1000.0);
      ("frontend.alloc_mwords", mwords_med "frontend");
      ("andersen.ms", self_med "andersen" *. 1000.0);
      ("andersen.alloc_mwords", mwords_med "andersen");
      ("andersen.propagations", fi (Stats.get sv "propagations"));
      ("andersen.collapse_passes", fi (Stats.get sv "collapse_passes"));
      ("andersen.collapsed_units", fi (Stats.get sv "collapsed_units"));
      ("andersen.cg_edges", fi (Stats.get sv "cg_edges"));
      ("pag.nodes", fi (Pag.node_count pl.Pipeline.pag));
      ( "pag.edges",
        fi (e.Pag.n_new + e.n_assign + e.n_load + e.n_store + e.n_entry + e.n_exit + e.n_assign_global) );
      (* what the daemon's responses expose of the inner layers *)
      ("clients.points", medf (fun x -> fi x.points) checks);
      ("clients.dedup_ratio", Metrics.ratio (points - uniq) points);
      ("core.batch_ms", medf (fun x -> x.batch_ms) queries);
      ("core.steps", medf (fun x -> fi x.steps) queries);
      ("core.queries", medf (fun x -> fi x.queries) queries);
      ("core.unknown", fi unknown);
      ("clients.report_bytes", medf (fun x -> fi x.report_bytes) checks);
      ("serve.decode_us", self_med "serve.decode" *. 1e6);
      ("serve.handle_ms", self_med "serve.handle" *. 1000.0);
      ("serve.encode_us", self_med "serve.encode" *. 1e6);
      ("serve.response_bytes", med (fun s -> fi s.s_bytes) samples);
      ("tier.hit_ratio", Metrics.ratio hits (hits + misses));
      ("tier.evictions", fi tier.(2));
      ("tier.size", fi (Dynsum.base_length (Daemon.base d)));
      ("incr.edit_ms", if edits then med (fun s -> s.s_handle *. 1000.0) edits_l else 0.0);
      ("incr.dirty", if edits then medf (fun x -> fi x.dirty) edits_l else 0.0);
      ( "incr.oracle_invalidated",
        if edits then medf (fun x -> fi x.oracle_invalidated) edits_l else 0.0 );
      ("incr.retention", Metrics.ratio retained (retained + dropped));
      ( "incr.requery_ms",
        if edits then med (fun s -> s.s_handle *. 1000.0) (List.filter (fun s -> s.s_after_edit) ops) else 0.0 );
      ( "trace.overhead_frac",
        let a = med (fun s -> s.s_lat) traced_s and b = med (fun s -> s.s_lat) untraced in
        (a -. b) /. b );
      ("trace.spans", fi (List.length spans));
      (* no per-call layers are visible through the daemon *)
      ("clients.points_ms", 0.0);
      ("core.summary_hit_ratio", 0.0);
      ("core.unique_summaries", 0.0);
      ("core.alloc_mwords", 0.0);
      ("clients.diag_ms", 0.0);
      ("clients.witness_found", 0.0);
      ("clients.render_ms", 0.0);
    ]
  in
  let per_kind =
    List.map
      (fun k ->
        let l = List.filter (fun s -> kind_name s.s_req = k) samples in
        Printf.sprintf "%s: n=%d p50=%.1fms sum=%.2fs" k (List.length l)
          (med (fun s -> s.s_lat *. 1000.0) l)
          (List.fold_left (fun a s -> a +. s.s_lat) 0.0 l))
      (List.sort_uniq compare (List.map (fun s -> kind_name s.s_req) samples))
  in
  let notes =
    per_kind @
    [
      Printf.sprintf "daemon over tainted %s; %d rounds, %d requests (%d query, %d check, %d edit), closed loop, 1 client"
        program n_rounds (List.length samples) (List.length queries) (List.length checks) (List.length edits_l);
      Printf.sprintf "peak memory after set-up: %.1f MB" setup_peak;
      "round seconds at reference speed: " ^ String.concat " " (List.map (Printf.sprintf "%.2f") rounds);
      "round seconds, raw: " ^ String.concat " " (List.map (Printf.sprintf "%.2f") raw_rounds);
      "reference passes, ms: "
      ^ String.concat " " (List.map (fun x -> Printf.sprintf "%.1f" (x *. 1000.0)) (Calib.passes calib));
      (match tail with
      | Some (p, _) -> Printf.sprintf "latency_tail_ms is p%g of %d samples" (p *. 100.0) (List.length lats)
      | None -> Printf.sprintf "latency_tail_ms: too few samples (%d)" (List.length lats));
      (if edits then Printf.sprintf "bursts replayed on a rebuild: %d (%.1f s)" (List.length !bursts) check_s
       else Printf.sprintf "responses checked against a fresh pipeline: %d (%.1f s)" (List.length !checked) check_s);
    ]
  in
  (sp, tally, List.rev !mismatches, values, notes)
