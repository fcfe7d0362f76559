(* Determinism and equivalence of the parallel batch scheduler (Parsolve):
   sharding a batch across domains, at any jobs setting, must
   return exactly the sequential engine's answers; merging per-domain
   DYNSUM caches must never change an answer; traces written through the
   shared writer must interleave whole lines only.

   All runs use a budget generous enough that every query resolves: a
   resolved demand query is the exact CFL answer and hence independent of
   sharding and cache warmth, which is what makes cross-jobs equality a
   deterministic property rather than a flaky one. *)

module Hstack = Pts_util.Hstack
module Client = Pts_clients.Client
module Pipeline = Pts_clients.Pipeline
module Suite = Pts_workload.Suite

let conf = Engine.conf ~budget_limit:10_000_000 ~max_field_depth:4 ()

let pl = lazy (Suite.pipeline "jack")

let queries = lazy (Pts_clients.Safecast.queries (Lazy.force pl))

let qarr () =
  Array.of_list (List.map (fun q -> Parsolve.query q.Client.q_node) (Lazy.force queries))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------- parallel == sequential, per engine ------------------- *)

let test_engine_jobs_equal engine_name () =
  let pl = Lazy.force pl in
  let seq = Engine.create ~conf engine_name pl.Pipeline.pag in
  let expected =
    List.map (fun q -> seq.Engine.points_to q.Client.q_node) (Lazy.force queries)
  in
  List.iter
    (fun with_base ->
      List.iter
        (fun jobs ->
          let base = if with_base then Some (Dynsum.base_create ()) else None in
          let r = Parsolve.run ~conf ~jobs ?base ~engine:engine_name pl.Pipeline.pag (qarr ()) in
          List.iteri
            (fun i expect ->
              if not (Query.equal_outcome expect r.Parsolve.outcomes.(i)) then
                Alcotest.failf "%s: query %d differs from sequential at jobs=%d base=%b"
                  engine_name i jobs with_base)
            expected;
          if jobs = 1 then begin
            (* a lone worker publishes nothing, yet reports the same counts *)
            Alcotest.(check int) "jobs=1: unique = merged" r.Parsolve.merged_summaries
              r.Parsolve.unique_summaries;
            Alcotest.(check int) "jobs=1: merged = pool length" r.Parsolve.merged_summaries
              (Dynsum.snapshot_length (Lazy.force r.Parsolve.summaries))
          end)
        [ 1; 2; 4 ])
    [ false; true ]

(* ----------------------- scheduler accounting ----------------------------- *)

let test_steal_accounting () =
  let pl = Lazy.force pl in
  let n = Array.length (qarr ()) in
  let r = Parsolve.run ~conf ~jobs:4 ~engine:"dynsum" pl.Pipeline.pag (qarr ()) in
  Alcotest.(check int) "one report per domain" 4 (List.length r.Parsolve.reports);
  Alcotest.(check int) "one prediction per query" n (Array.length r.Parsolve.predicted_steps);
  Alcotest.(check int) "one actual cost per query" n (Array.length r.Parsolve.actual_steps);
  Array.iter
    (fun p ->
      if p < Costmodel.fastpath_cost then Alcotest.failf "prediction %d below fast path" p)
    r.Parsolve.predicted_steps;
  let report_steals =
    List.fold_left (fun acc d -> acc + d.Parsolve.dr_steals) 0 r.Parsolve.reports
  in
  Alcotest.(check int) "per-domain steals sum to the total" r.Parsolve.steals report_steals;
  let report_queries =
    List.fold_left (fun acc d -> acc + d.Parsolve.dr_queries) 0 r.Parsolve.reports
  in
  Alcotest.(check int) "every query answered exactly once" n report_queries;
  Alcotest.(check bool) "unique summaries bounded by derivations" true
    (r.Parsolve.unique_summaries <= r.Parsolve.merged_summaries);
  Alcotest.(check int) "final pool length matches the count"
    r.Parsolve.unique_summaries
    (Dynsum.snapshot_length (Lazy.force r.Parsolve.summaries));
  let c = r.Parsolve.cost_corr in
  Alcotest.(check bool) "correlation in range or undefined" true
    (Float.is_nan c || (c >= -1.000001 && c <= 1.000001))

(* --------------------- cache merging preserves answers -------------------- *)

let test_snapshot_merge_preserves_answers () =
  let pl = Lazy.force pl in
  let pag = pl.Pipeline.pag in
  let qs = Lazy.force queries in
  let half1 = List.filteri (fun i _ -> i mod 2 = 0) qs in
  let half2 = List.filteri (fun i _ -> i mod 2 = 1) qs in
  let d1 = Dynsum.create ~conf pag and d2 = Dynsum.create ~conf pag in
  List.iter (fun q -> ignore (Dynsum.points_to d1 q.Client.q_node)) half1;
  List.iter (fun q -> ignore (Dynsum.points_to d2 q.Client.q_node)) half2;
  let merged = Dynsum.snapshot_union [ Dynsum.snapshot d1; Dynsum.snapshot d2 ] in
  Alcotest.(check bool) "union is non-empty" true (Dynsum.snapshot_length merged > 0);
  let tier = Dynsum.base_create () in
  Alcotest.(check bool) "the tier takes the union" true (Dynsum.base_add tier merged > 0);
  let seeded = Dynsum.create ~conf pag in
  Dynsum.set_base seeded tier;
  let fresh = Dynsum.create ~conf pag in
  List.iter
    (fun q ->
      let a = Dynsum.points_to seeded q.Client.q_node in
      let b = Dynsum.points_to fresh q.Client.q_node in
      if not (Query.equal_outcome a b) then
        Alcotest.failf "merged cache changed the answer for %s" q.Client.q_desc)
    qs

let test_snapshot_union_is_idempotent () =
  let pl = Lazy.force pl in
  let d = Dynsum.create ~conf pl.Pipeline.pag in
  List.iter (fun q -> ignore (Dynsum.points_to d q.Client.q_node)) (Lazy.force queries);
  let s = Dynsum.snapshot d in
  Alcotest.(check int) "union with itself adds nothing"
    (Dynsum.snapshot_length (Dynsum.snapshot_union [ s ]))
    (Dynsum.snapshot_length (Dynsum.snapshot_union [ s; s; s ]))

(* ------------------ cache bytes are schedule-independent ------------------ *)

(* [ptsto client --cache] at any --jobs: load the file into the batch's
   summary tier, run, save the loaded summaries plus the run's merged
   pool. Snapshots are sorted and base-tier memos are never exported, so
   the file bytes must not depend on the job count, nor on whether the
   run started from a cache. *)
let read_file path =
  let ic = open_in_bin path in
  let b = really_input_string ic (in_channel_length ic) in
  close_in ic;
  b

let cached_run ~jobs path =
  let pag = (Lazy.force pl).Pipeline.pag in
  let loaded =
    if Sys.file_exists path then Result.get_ok (Dynsum.load_snapshot pag path)
    else Dynsum.snapshot_union []
  in
  let tier = Dynsum.base_create () in
  ignore (Dynsum.base_add tier loaded);
  let r = Parsolve.run ~conf ~jobs ~base:tier ~engine:"dynsum" pag (qarr ()) in
  Dynsum.save_snapshot pag (Dynsum.snapshot_union [ loaded; Lazy.force r.Parsolve.summaries ]) path;
  let b = read_file path in
  Sys.remove path;
  b

let test_cache_bytes_schedule_independent () =
  let pl = Lazy.force pl in
  let seqd = Dynsum.create ~conf pl.Pipeline.pag in
  List.iter (fun q -> ignore (Dynsum.points_to seqd q.Client.q_node)) (Lazy.force queries);
  let path = Filename.temp_file "ptsto_cache" ".bin" in
  Dynsum.save_snapshot pl.Pipeline.pag (Dynsum.snapshot seqd) path;
  let seq_bytes = read_file path in
  Sys.remove path;
  Alcotest.(check bool) "sequential cache is non-trivial" true (String.length seq_bytes > 0);
  let same what b =
    Alcotest.(check int) (what ^ ": cache size matches sequential") (String.length seq_bytes)
      (String.length b);
    Alcotest.(check bool) (what ^ ": cache bytes identical to sequential") true
      (String.equal seq_bytes b)
  in
  List.iter
    (fun jobs ->
      same (Printf.sprintf "jobs=%d cold" jobs) (cached_run ~jobs path);
      (* warm: half the summaries come from the file, half are derived *)
      let half = Dynsum.create ~conf pl.Pipeline.pag in
      List.iteri
        (fun i q -> if i mod 2 = 0 then ignore (Dynsum.points_to half q.Client.q_node))
        (Lazy.force queries);
      Dynsum.save_snapshot pl.Pipeline.pag (Dynsum.snapshot half) path;
      same (Printf.sprintf "jobs=%d warm" jobs) (cached_run ~jobs path))
    [ 1; 2; 4 ];
  (* a jobs=2 pool, saved without a file tier, matches too *)
  let r = Parsolve.run ~conf ~jobs:2 ~engine:"dynsum" pl.Pipeline.pag (qarr ()) in
  Dynsum.save_snapshot pl.Pipeline.pag (Lazy.force r.Parsolve.summaries) path;
  let b = read_file path in
  Sys.remove path;
  same "jobs=2 pool" b

(* ------------------------- trace line integrity --------------------------- *)

let test_parallel_trace_whole_lines () =
  let pl = Lazy.force pl in
  let path = Filename.temp_file "ptsto_trace" ".jsonl" in
  let w = Trace.writer_to_file path in
  (* four domains share one writer; each hands its buffer over at the
     default 64 KiB threshold and once more at close *)
  ignore
    (Parsolve.run ~conf ~trace_writer:w ~jobs:4 ~engine:"dynsum" pl.Pipeline.pag (qarr ()));
  Trace.writer_close w;
  let ic = open_in path in
  let lines = ref 0 and starts = ref 0 and ends = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lines;
       if
         not
           (String.length line > 1
           && line.[0] = '{'
           && line.[String.length line - 1] = '}'
           && contains line "\"ev\":")
       then Alcotest.failf "mangled trace line %d: %s" !lines line;
       if contains line "\"ev\":\"query_start\"" then incr starts;
       if contains line "\"ev\":\"query_end\"" then incr ends
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  Alcotest.(check int) "one query_start per query" (Array.length (qarr ())) !starts;
  Alcotest.(check int) "one query_end per query" (Array.length (qarr ())) !ends

(* ------------------------ hash-cons domain-locality ------------------------ *)

let test_hstack_rebase_across_domains () =
  let foreign = Domain.join (Domain.spawn (fun () -> Hstack.of_list [ 3; 1; 4; 1 ])) in
  (* reading a foreign stack is fine; rebase re-interns it locally *)
  let r = Hstack.rebase foreign in
  Alcotest.(check (list int)) "symbols survive the crossing" [ 3; 1; 4; 1 ] (Hstack.to_list r);
  Alcotest.(check bool) "rebased stack is hash-consed in this domain" true
    (Hstack.equal r (Hstack.of_list [ 3; 1; 4; 1 ]))

(* ------------------------------ validations ------------------------------- *)

let test_run_validations () =
  let pl = Lazy.force pl in
  Alcotest.check_raises "jobs must be positive"
    (Invalid_argument "Parsolve.run: jobs must be >= 1") (fun () ->
      ignore (Parsolve.run ~jobs:0 ~engine:"dynsum" pl.Pipeline.pag [||]));
  (match Parsolve.run ~engine:"nosuch" pl.Pipeline.pag [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown engine accepted");
  let unfrozen = Pag.create pl.Pipeline.prog in
  Alcotest.check_raises "unfrozen PAG rejected"
    (Invalid_argument "Pag.packed: call Pag.freeze first") (fun () ->
      ignore (Parsolve.run ~engine:"dynsum" unfrozen [||]))

let () =
  Alcotest.run "parallel"
    [
      ( "equivalence",
        List.map
          (fun name ->
            Alcotest.test_case (name ^ " jobs 1/2/4") `Quick (test_engine_jobs_equal name))
          (Engine.names ()) );
      ( "scheduler",
        [
          Alcotest.test_case "steal accounting" `Quick test_steal_accounting;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "merge preserves answers" `Quick test_snapshot_merge_preserves_answers;
          Alcotest.test_case "union idempotent" `Quick test_snapshot_union_is_idempotent;
          Alcotest.test_case "cache bytes schedule-independent" `Quick
            test_cache_bytes_schedule_independent;
        ] );
      ("trace", [ Alcotest.test_case "whole lines only" `Quick test_parallel_trace_whole_lines ]);
      ("hstack", [ Alcotest.test_case "rebase across domains" `Quick test_hstack_rebase_across_domains ]);
      ("validation", [ Alcotest.test_case "argument checks" `Quick test_run_validations ]);
    ]
