module Hstack = Pts_util.Hstack
module Stats = Pts_util.Stats

type query = { node : Pag.node; satisfy : (Query.Target_set.t -> bool) option }

let query ?satisfy node = { node; satisfy }

type domain_report = {
  dr_domain : int;
  dr_queries : int;
  dr_steps : int;
  dr_seconds : float;
  dr_summaries : int;
  dr_steals : int;
}

type result = {
  outcomes : Query.outcome array;
  reports : domain_report list;
  stats : Stats.t;
  wall_seconds : float;
  jobs : int;
  steals : int;
  predicted_steps : int array;
  actual_steps : int array;
  cost_corr : float;
  merged_summaries : int;
  unique_summaries : int;
  summaries : Dynsum.snapshot Lazy.t;
  base_hits : int;
  base_misses : int;
  base_evictions : int;
  base_size : int;
}

(* What one domain hands back. Everything in here is
   either immutable, or mutable state the worker stops touching before
   [Domain.join] (which is the happens-before edge the main domain reads
   it under). Field stacks inside [wr_outcomes] are hash-consed in the
   {e worker's} store and must be rebased before the main domain may use
   them as keys (see {!Pts_util.Hstack.rebase}). [wr_engine] is kept for
   its counters and, for DYNSUM, its summaries, which are snapshotted on
   the main domain after the join — only when a tier or the merged pool
   needs them ({!Dynsum.snapshot} reads stacks with the pure
   {!Pts_util.Hstack.to_list}, which is safe on a foreign domain's
   stacks). *)
type worker_result = {
  wr_outcomes : (int * Query.outcome * int) list; (* index, outcome, steps *)
  wr_seconds : float;
  wr_steals : int;
  wr_engine : Engine.engine;
}

(* Re-intern every context stack of a worker-domain outcome in the
   calling domain's hash-cons store. [Target.compare] orders by stack id,
   so a set is only meaningful in the domain whose store minted the ids. *)
let rebase_outcome = function
  | Query.Exceeded -> Query.Exceeded
  | Query.Resolved ts ->
    Query.Resolved
      (Query.Target_set.fold
         (fun t acc ->
           Query.Target_set.add
             { t with Query.Target.hctx = Hstack.rebase t.Query.Target.hctx }
             acc)
         ts Query.Target_set.empty)

(* A worker owns [deques.(self)] (ownership transferred by the main
   domain across [Domain.spawn]) and steals from the fullest peer once its
   own deque runs dry. Tasks are only ever seeded before the workers
   start, so "every deque empty" is a stable termination condition —
   [Wsdeque.steal] returning [None] on a lost race just sends the thief
   back to rescan. *)
let run_worker ~conf ~trace_writer ~engine_name ~pag ~base ~deques ~self () =
  let trace = Option.map Trace.buffered_jsonl trace_writer in
  let eng = Engine.create ~conf ?trace engine_name pag in
  (match (eng.Engine.summaries, base) with Some d, Some b -> Dynsum.set_base d b | _ -> ());
  let outs = ref [] in
  let steals = ref 0 in
  let run_task (i, q) =
    let before = Budget.total_steps eng.Engine.budget in
    let o = eng.Engine.points_to ?satisfy:q.satisfy q.node in
    outs := (i, o, Budget.total_steps eng.Engine.budget - before) :: !outs
  in
  let jobs = Array.length deques in
  let rec drain () =
    match Wsdeque.pop deques.(self) with
    | Some t ->
      run_task t;
      drain ()
    | None -> scavenge ()
  and scavenge () =
    (* own deque dry: raid the fullest peer (FIFO end, i.e. its cheapest
       remaining task under longest-first seeding) *)
    let victim = ref (-1) and depth = ref 0 in
    for d = 0 to jobs - 1 do
      if d <> self then begin
        let s = Wsdeque.size deques.(d) in
        if s > !depth then begin
          victim := d;
          depth := s
        end
      end
    done;
    if !victim >= 0 then begin
      (match trace with
      | Some s ->
        Trace.emit s (Trace.Queue_depth { engine = engine_name; domain = !victim; depth = !depth })
      | None -> ());
      match Wsdeque.steal deques.(!victim) with
      | Some t ->
        incr steals;
        (match trace with
        | Some s -> Trace.emit s (Trace.Steal { engine = engine_name; thief = self; victim = !victim })
        | None -> ());
        run_task t;
        drain ()
      | None -> scavenge () (* lost the race; someone made progress *)
    end
    (* else: every deque empty — in-flight tasks belong to their takers,
       nothing left for us *)
  in
  let (), seconds = Stats.time drain in
  (match trace with Some s -> Trace.close s | None -> ());
  { wr_outcomes = !outs; wr_seconds = seconds; wr_steals = !steals; wr_engine = eng }

let run ?(conf = Conf.default) ?trace_writer ?(jobs = 1) ?base ~engine:engine_name pag queries =
  if jobs < 1 then invalid_arg "Parsolve.run: jobs must be >= 1";
  (match Engine.find engine_name with
  | Some _ -> ()
  | None ->
    invalid_arg
      (Printf.sprintf "Parsolve.run: unknown engine %S (known: %s)" engine_name
         (String.concat ", " (Engine.names ()))));
  (* a frozen PAG is shareable: the slabs are immutable and the edit
     overlay, if any, is only written by [Pag.apply_edits] between
     batches — never concurrently with a run. [packed] raises before
     [freeze], turning a data race on the build side into an immediate
     error. A caller passing [?base] owns the tier's freshness — the
     serve daemon keeps one tier across requests and runs
     [Dynsum.base_invalidate] on every edit commit. *)
  ignore (Pag.packed pag);
  let n = Array.length queries in
  let outcomes = Array.make n Query.Exceeded in
  let predicted_steps =
    Array.map (fun q -> Costmodel.predict ~prune:conf.Conf.prune pag q.node) queries
  in
  let actual_steps = Array.make n 0 in
  let agg_stats = Stats.create () in
  (* one lazy snapshot per DYNSUM worker, forced only to publish into the
     caller's tier or to build the merged pool *)
  let snaps = ref [] in
  let produced = ref 0 in
  let collect rebase d wr =
    let eng = wr.wr_engine in
    List.iter
      (fun (i, o, steps) ->
        outcomes.(i) <- rebase o;
        actual_steps.(i) <- steps)
      wr.wr_outcomes;
    Stats.merge_into ~into:agg_stats eng.Engine.stats;
    (* summaries this worker computed itself (base-tier memos excluded);
       for other engines, the engine's table size *)
    let summaries =
      match eng.Engine.summaries with
      | None -> eng.Engine.summary_count ()
      | Some dyn ->
        let snap = lazy (Dynsum.snapshot dyn) in
        snaps := snap :: !snaps;
        Option.iter (fun b -> ignore (Dynsum.base_add b (Lazy.force snap))) base;
        let k = Dynsum.new_summary_count dyn in
        produced := !produced + k;
        k
    in
    {
      dr_domain = d;
      dr_queries = List.length wr.wr_outcomes;
      dr_steps = Budget.total_steps eng.Engine.budget;
      dr_seconds = wr.wr_seconds;
      dr_summaries = summaries;
      dr_steals = wr.wr_steals;
    }
  in
  let reports, wall_seconds =
    Stats.time (fun () ->
        (* cost-model seeding: deal the queries round-robin in descending
           predicted cost, and push each deque's share cheapest-first so
           the owner pops expensive-first while thieves lift the cheap
           end — stragglers start earliest and migrate last *)
        let order = Array.init n Fun.id in
        Array.sort
          (fun i j ->
            match compare predicted_steps.(j) predicted_steps.(i) with 0 -> compare i j | c -> c)
          order;
        let shares = Array.make jobs [] in
        Array.iteri (fun k i -> shares.(k mod jobs) <- (i, queries.(i)) :: shares.(k mod jobs)) order;
        let deques =
          Array.map
            (fun share ->
              let dq = Wsdeque.create ~capacity:(max 16 (List.length share + 1)) () in
              List.iter (fun t -> Wsdeque.push dq t) share;
              dq)
            shares
        in
        let work self = run_worker ~conf ~trace_writer ~engine_name ~pag ~base ~deques ~self in
        (* one worker runs inline on this domain: its stacks are already
           interned here, so only spawned workers' outcomes are rebased *)
        if jobs = 1 then [ collect Fun.id 0 (work 0 ()) ]
        else
          Array.init jobs (fun d -> Domain.spawn (work d))
          |> Array.map Domain.join
          |> Array.mapi (collect rebase_outcome)
          |> Array.to_list)
  in
  let steals = List.fold_left (fun acc d -> acc + d.dr_steals) 0 reports in
  if steals > 0 then Stats.add agg_stats "steals" steals;
  let summaries = lazy (Dynsum.snapshot_union (List.rev_map Lazy.force !snaps)) in
  (* a lone worker derived every summary exactly once: no union needed *)
  let unique_summaries =
    match !snaps with [ _ ] -> !produced | _ -> Dynsum.snapshot_length (Lazy.force summaries)
  in
  let to_float a = Array.map float_of_int a in
  (* the tier only reports when a DYNSUM worker (one snapshot each) read it *)
  let base_hits, base_misses, base_evictions, base_size =
    match (base, !snaps) with
    | Some b, _ :: _ ->
      (Dynsum.base_hits b, Dynsum.base_misses b, Dynsum.base_evictions b, Dynsum.base_length b)
    | _ -> (0, 0, 0, 0)
  in
  {
    outcomes;
    reports;
    stats = agg_stats;
    wall_seconds;
    jobs;
    steals;
    predicted_steps;
    actual_steps;
    cost_corr = Costmodel.pearson (to_float predicted_steps) (to_float actual_steps);
    merged_summaries = !produced;
    unique_summaries;
    summaries;
    base_hits;
    base_misses;
    base_evictions;
    base_size;
  }

let reports_json r =
  let open Trace.Json in
  List
    (List.map
       (fun d ->
         Obj
           [
             ("domain", Int d.dr_domain);
             ("queries", Int d.dr_queries);
             ("steps", Int d.dr_steps);
             ("seconds", Float d.dr_seconds);
             ("summaries", Int d.dr_summaries);
             ("steals", Int d.dr_steals);
           ])
       r.reports)
