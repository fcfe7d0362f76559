(* oneshot-sweep: the CLI/CI path. Every program of the suite goes cold
   from source text to a serialised check report — compile, Andersen,
   all six checkers on dynsum, render — with nothing carried from one
   program to the next. One sweep is one pass over the nine programs. *)

module Check = Pts_clients.Check
module Diag = Pts_clients.Diag
module Pipeline = Pts_clients.Pipeline
module Genprog = Pts_workload.Genprog
module Solver = Pts_andersen.Solver
module Stats = Pts_util.Stats

type program = { name : string; source : string; labels : Genprog.taint_label list }

(* The timed programs are the suite's own: tainted with flows 6, clean 6,
   kill 4 and weak 4, at the suite's generator seeds. Their cost depends
   strongly on the generator seed (how many queries run out of budget),
   so the workload seed only orders them; it moves every generator seed
   of the canary programs, which are checked but not timed. *)
let config ?canary name =
  let c = Pts_workload.Suite.tainted ~flows:6 ~clean:6 ~kill:4 ~weak:4 name in
  match canary with
  | None -> c
  | Some seed -> { c with Genprog.seed = (c.Genprog.seed * 7919) + (seed * 104729) }

let program ?canary name =
  let source, labels = Genprog.generate_with_truth (config ?canary name) in
  { name; source; labels }

let programs ~seed =
  let a = Array.of_list (List.map program Pts_workload.Suite.names) in
  Pts_util.Prng.shuffle (Pts_util.Prng.create seed) a;
  Array.to_list a

let unresolved_suffix = "unresolved (budget exceeded)"

let has_unresolved_suffix m =
  let s = unresolved_suffix in
  String.length m >= String.length s
  && String.equal (String.sub m (String.length m - String.length s) (String.length s)) s

let is_unresolved d = has_unresolved_suffix d.Diag.d_message

(* Recall 1.0: every sink labelled tainted carries a taint finding. *)
let recall_ok p report =
  List.for_all
    (fun l ->
      (not l.Genprog.tl_tainted)
      || List.exists
           (fun d -> String.equal d.Diag.d_checker Pts_taint.Checker.name && String.equal d.Diag.d_method l.Genprog.tl_method)
           report.Check.r_diags)
    p.labels

type one = {
  latency : float;
  setup : float;
  json : string;
  report : Check.report;
  pl : Pipeline.t;
  checkers : Check.checker list;
}

let engine = "dynsum"

(* Source text -> serialised report, the same calls [ptsto check] makes. *)
let run_program sp p =
  let t0 = Unix.gettimeofday () in
  Spans.record sp ~req:p.name "program" (fun () ->
      let prog = Spans.record sp "frontend" (fun () -> Frontend.compile p.source) in
      let pl = Spans.record sp "andersen" (fun () -> Pipeline.of_program prog) in
      let setup = Unix.gettimeofday () -. t0 in
      let checkers = Pts_taint.Registry.all ~taint:(Pts_taint.Spec.of_source p.source) () in
      let opts = { Check.default_opts with Check.o_engine = engine } in
      let report = Spans.record sp "check" (fun () -> Check.run ~opts ~checkers pl) in
      let json = Spans.record sp "render" (fun () -> Trace.Json.to_string (Check.report_json report)) in
      { latency = Unix.gettimeofday () -. t0; setup; json; report; pl; checkers })

(* Traced sweeps split [Check.run] by re-issuing its two inner layers
   beside it, after it, on the same pipeline: the points of every
   checker, then the deduplicated batch on a per-call tier. These probe
   spans sit outside the program span, so they never count as latency. *)
let probe sp p one counts =
  let points =
    Spans.record sp ~req:p.name "clients.points" (fun () ->
        List.concat_map (Check.points_of one.pl) one.checkers)
  in
  let seen = Hashtbl.create 64 in
  let nodes =
    List.filter_map
      (fun pt ->
        if Hashtbl.mem seen pt.Check.pt_node then None
        else (
          Hashtbl.add seen pt.Check.pt_node ();
          Some (Parsolve.query pt.Check.pt_node)))
      points
  in
  let qs = Array.of_list nodes in
  let res =
    Spans.record sp ~req:p.name "core.batch" (fun () ->
        Parsolve.run ~engine one.pl.Pipeline.pag qs)
  in
  let add k v =
    List.iter
      (fun key -> Hashtbl.replace counts key (v +. Option.value ~default:0.0 (Hashtbl.find_opt counts key)))
      [ k; p.name ^ "/" ^ k ]
  in
  let fi = float_of_int in
  let sv = Solver.stats one.pl.Pipeline.solver in
  List.iter (fun k -> add ("andersen." ^ k) (fi (Stats.get sv k))) [ "propagations"; "collapse_passes"; "collapsed_units"; "cg_edges" ];
  let pag = one.pl.Pipeline.pag in
  let e = Pag.edge_counts pag in
  add "pag.nodes" (fi (Pag.node_count pag));
  add "pag.edges"
    (fi (e.Pag.n_new + e.n_assign + e.n_load + e.n_store + e.n_entry + e.n_exit + e.n_assign_global));
  add "clients.points" (fi one.report.Check.r_points);
  add "dedup_hits" (fi one.report.Check.r_dedup_hits);
  add "core.steps" (fi (Array.fold_left ( + ) 0 res.Parsolve.actual_steps));
  add "core.queries" (fi (Array.length qs));
  add "core.unknown"
    (fi (Array.fold_left (fun n o -> match o with Query.Exceeded -> n + 1 | Query.Resolved _ -> n) 0 res.Parsolve.outcomes));
  add "summary_hits" (fi (Stats.get res.Parsolve.stats "summary_hits"));
  add "summary_misses" (fi (Stats.get res.Parsolve.stats "summary_misses"));
  add "core.unique_summaries" (fi res.Parsolve.unique_summaries);
  add "clients.witness_found" (fi (Stats.get one.report.Check.r_stats "witness_found"));
  add "clients.report_bytes" (fi (String.length one.json));
  add "tier_hits" (fi res.Parsolve.base_hits);
  add "tier_misses" (fi res.Parsolve.base_misses);
  add "tier.evictions" (fi res.Parsolve.base_evictions);
  add "tier.size" (fi res.Parsolve.base_size)

(* Peak resident memory of a process that runs one program from source
   text to report, as a [ptsto check] process does: a child forked before
   the timed phase, while the benchmark's own heap is still small. In one
   long-lived process the heap keeps what earlier programs fragmented, so
   its peak would follow the order and number of the programs run. *)
let fresh_peak_mb p =
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let code =
      match run_program (Spans.create ~on:false) p with
      | _ ->
        let mb = Printf.sprintf "%.17g" (Metrics.peak_mem_mb ()) in
        ignore (Unix.write_substring w mb 0 (String.length mb));
        0
      | exception _ -> 1
    in
    Unix._exit code
  | pid -> (
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let text = In_channel.input_all ic in
    close_in ic;
    match (snd (Unix.waitpid [] pid), float_of_string_opt text) with
    | Unix.WEXITED 0, Some mb -> Some mb
    | _ -> None)

(* Five sweeps of nine programs hold 45 samples, so the tail is always
   p75, with at least 10 samples beyond it, however slow the machine. *)
let min_sweeps = 5

(* One program run of the timed phase: its seconds as measured, then at
   the reference speed once the run is over. *)
type timed = {
  t_sweep : int;
  t_tracing : bool;
  t_segment : int;  (** calibration segment *)
  t_latency : float;
  t_setup : float;
}

let run ~seed ~seconds ~traced =
  let progs = programs ~seed in
  let peaks = List.map (fun p -> (p.name, fresh_peak_mb p)) progs in
  let sp = Spans.create ~on:traced in
  let off = Spans.create ~on:false in
  let tally = Metrics.tally () in
  let mismatches = ref [] in
  let mismatch fmt = Printf.ksprintf (fun m -> mismatches := m :: !mismatches) fmt in
  let reference = Hashtbl.create 16 in
  let timed = ref [] in
  let unresolved = ref 0 and points = ref 0 in
  let counts = Hashtbl.create 32 in
  let calib = Calib.create () in
  let deadline = Unix.gettimeofday () +. seconds in
  let k = ref 0 in
  (* a traced run alternates untraced and traced sweeps, so tracing
     overhead is measured within the run *)
  while !k < min_sweeps || Unix.gettimeofday () < deadline do
    let tracing = traced && !k mod 2 = 1 in
    let rec_ = if tracing then sp else off in
    List.iter
      (fun p ->
        (* start every program from a compacted heap, as a fresh
           [ptsto check] process would, whatever ran before it; the
           compaction is not part of the program's time *)
        Gc.compact ();
        (match run_program rec_ p with
        | exception e ->
          Metrics.attempt tally false;
          mismatch "%s raised %s" p.name (Printexc.to_string e)
        | one ->
          Metrics.attempt tally true;
          timed :=
            {
              t_sweep = !k;
              t_tracing = tracing;
              t_segment = Calib.segment calib;
              t_latency = one.latency;
              t_setup = one.setup;
            }
            :: !timed;
          if not (recall_ok p one.report) then mismatch "%s: a labelled taint flow was not reported" p.name;
          (match Hashtbl.find_opt reference p.name with
          | None -> Hashtbl.add reference p.name one.json
          | Some j -> if not (String.equal j one.json) then mismatch "%s: report differs between sweeps" p.name);
          unresolved := !unresolved + List.length (List.filter is_unresolved one.report.Check.r_diags);
          points := !points + one.report.Check.r_points;
          if tracing then probe sp p one counts);
        (* a reference pass after every program *)
        Calib.boundary calib)
      progs;
    incr k
  done;
  (* times at the reference speed; a sweep's time is the sum of its
     programs' source-to-report times *)
  let scale = Calib.scale calib in
  let raw = List.rev !timed in
  let timed =
    List.map
      (fun t ->
        let x = scale t.t_segment in
        { t with t_latency = t.t_latency *. x; t_setup = t.t_setup *. x })
      raw
  in
  let sum_by_sweep f l =
    List.init !k (fun i -> List.fold_left (fun a t -> if t.t_sweep = i then a +. f t else a) 0.0 l)
  in
  let raw_sweeps = sum_by_sweep (fun t -> t.t_latency) raw in
  let sweeps =
    List.combine
      (sum_by_sweep (fun t -> t.t_latency) timed)
      (sum_by_sweep (fun t -> t.t_setup) timed)
    |> List.mapi (fun i (s, u) -> (s, u, traced && i mod 2 = 1))
  in
  let latencies = List.map (fun t -> t.t_latency) timed in
  let traced_lat = List.filter_map (fun t -> if t.t_tracing then Some t.t_latency else None) timed in
  let untraced_lat = List.filter_map (fun t -> if t.t_tracing then None else Some t.t_latency) timed in
  let peak_mem =
    List.fold_left
      (fun a (name, mb) ->
        match mb with
        | Some mb -> Float.max a mb
        | None ->
          Metrics.attempt tally false;
          mismatch "%s: the fresh-process run for peak memory failed" name;
          a)
      0.0 peaks
  in
  (* the seeded canaries: unseen programs, every correctness check, untimed *)
  List.iter
    (fun name ->
      let p = program ~canary:seed name in
      match run_program off p with
      | exception e ->
        Metrics.attempt tally false;
        mismatch "canary %s raised %s" name (Printexc.to_string e)
      | one ->
        Metrics.attempt tally true;
        if not (recall_ok p one.report) then mismatch "canary %s: a labelled taint flow was not reported" name)
    Pts_workload.Suite.names;
  let n_traced = float_of_int (List.length (List.filter (fun (_, _, t) -> t) sweeps)) in
  let per_sweep k = Option.value ~default:0.0 (Hashtbl.find_opt counts k) /. max 1.0 n_traced in
  let spans = Spans.spans sp in
  let self_ms name = List.fold_left (fun a (s, _) -> a +. s) 0.0 (Spans.by_name spans name) *. 1000.0 /. max 1.0 n_traced in
  let mwords name = List.fold_left (fun a (_, w) -> a +. w) 0.0 (Spans.by_name spans name) /. 1e6 /. max 1.0 n_traced in
  let total_sweep = List.fold_left (fun a (s, _, _) -> a +. s) 0.0 sweeps in
  let tail = Metrics.tail ~cap:0.75 latencies in
  let hit = per_sweep "summary_hits" and miss = per_sweep "summary_misses" in
  let tier_hit = per_sweep "tier_hits" and tier_miss = per_sweep "tier_misses" in
  let med_traced = Metrics.median traced_lat and med_untraced = Metrics.median untraced_lat in
  let values =
    [
      ("sweep_s", Metrics.median (List.map (fun (s, _, _) -> s) sweeps));
      ("setup_s", Metrics.median (List.map (fun (_, s, _) -> s) sweeps));
      ("latency_p50_ms", Metrics.median latencies *. 1000.0);
      ("latency_tail_ms", (match tail with Some (_, v) -> v | None -> nan) *. 1000.0);
      ("throughput_rps", float_of_int (List.length latencies) /. total_sweep);
      ("peak_mem_mb", peak_mem);
      ("unresolved_frac", Metrics.ratio !unresolved !points);
      ("error_frac", Metrics.failure_frac tally);
      ("frontend.ms", self_ms "frontend");
      ("frontend.alloc_mwords", mwords "frontend");
      ("andersen.ms", self_ms "andersen");
      ("andersen.alloc_mwords", mwords "andersen");
      ("clients.points_ms", self_ms "clients.points");
      ("core.batch_ms", self_ms "core.batch");
      ("core.alloc_mwords", mwords "core.batch");
      ("clients.diag_ms", self_ms "check" -. self_ms "clients.points" -. self_ms "core.batch");
      ("clients.render_ms", self_ms "render");
      ("clients.dedup_ratio", per_sweep "dedup_hits" /. max 1.0 (per_sweep "clients.points"));
      ("core.summary_hit_ratio", hit /. max 1.0 (hit +. miss));
      ("tier.hit_ratio", tier_hit /. max 1.0 (tier_hit +. tier_miss));
      ("trace.overhead_frac", (med_traced -. med_untraced) /. med_untraced);
      ("trace.spans", float_of_int (List.length spans));
    ]
    @ List.map
        (fun k -> (k, per_sweep k))
        [
          "andersen.propagations"; "andersen.collapse_passes"; "andersen.collapsed_units"; "andersen.cg_edges";
          "pag.nodes"; "pag.edges"; "clients.points"; "core.steps"; "core.queries"; "core.unknown";
          "core.unique_summaries"; "clients.witness_found"; "clients.report_bytes"; "tier.evictions"; "tier.size";
        ]
    (* no daemon and no edits on this workload *)
    @ List.map
        (fun k -> (k, 0.0))
        [
          "serve.decode_us"; "serve.handle_ms"; "serve.encode_us"; "serve.response_bytes"; "incr.edit_ms";
          "incr.dirty"; "incr.oracle_invalidated"; "incr.retention"; "incr.requery_ms";
        ]
  in
  (* per program, mean over the traced sweeps *)
  let breakdown name =
    let ms span =
      List.fold_left
        (fun a (s, self) -> if String.equal s.Spans.name span && String.equal s.Spans.req name then a +. self else a)
        0.0 (Spans.self_times spans)
      *. 1000.0 /. max 1.0 n_traced
    in
    Printf.sprintf
      "%s: frontend %.1f ms, andersen %.1f ms, check %.1f ms (points %.1f ms, batch %.1f ms), render %.1f ms; \
       %.0f steps, %.0f queries, %.0f unknown"
      name (ms "frontend") (ms "andersen") (ms "check") (ms "clients.points") (ms "core.batch") (ms "render")
      (per_sweep (name ^ "/core.steps")) (per_sweep (name ^ "/core.queries")) (per_sweep (name ^ "/core.unknown"))
  in
  let notes =
    (if traced then List.map breakdown Pts_workload.Suite.names else [])
    @ [
      Printf.sprintf "programs: %s (tainted: flows 6, clean 6, kill 4, weak 4; all six checkers on %s)"
        (String.concat " " (List.map (fun p -> p.name) progs)) engine;
      "peak MB of a fresh process per program: "
      ^ String.concat " "
          (List.map (fun (n, mb) -> Printf.sprintf "%s %.1f" n (Option.value ~default:nan mb)) peaks);
      Printf.sprintf "sweeps: %d, program runs: %d, seeded canaries checked: %d" (List.length sweeps)
        (List.length latencies) (List.length Pts_workload.Suite.names);
      "sweep seconds at reference speed: "
      ^ String.concat " " (List.map (fun (s, _, _) -> Printf.sprintf "%.2f" s) sweeps);
      "sweep seconds, raw: " ^ String.concat " " (List.map (Printf.sprintf "%.2f") raw_sweeps);
      "reference passes, ms: "
      ^ String.concat " " (List.map (fun x -> Printf.sprintf "%.1f" (x *. 1000.0)) (Calib.passes calib));
      (match tail with
      | Some (p, _) -> Printf.sprintf "latency_tail_ms is p%g of %d samples" (p *. 100.0) (List.length latencies)
      | None -> Printf.sprintf "latency_tail_ms: too few samples (%d)" (List.length latencies));
    ]
  in
  (sp, tally, List.rev !mismatches, values, notes)
