(* Simulates the paper's motivating deployment: an IDE issuing bursts of
   NullDeref queries against a long-lived analysis session. DYNSUM keeps
   its summary cache across bursts, so per-query latency collapses after
   the first burst — the property that makes it "better-suited for
   low-budget environments such as JIT compilers and IDEs" (§5.3).

     dune exec examples/ide_batch.exe [-- BENCH] *)

let () =
  let bench = match Sys.argv with [| _; b |] -> b | _ -> "jython" in
  let pl = Pts_workload.Suite.pipeline bench in
  let queries = Pts_clients.Nullderef.queries pl in
  Printf.printf "IDE session on %s: %d null-dereference queries in 10 bursts\n\n" bench
    (List.length queries);
  let engines =
    [
      ("refinepts (per-query caching only)", List.nth (Pts_clients.Pipeline.engines pl) 1);
      ("dynsum (summaries persist)", Engine.create "dynsum" pl.Pts_clients.Pipeline.pag);
    ]
  in
  List.iter
    (fun (label, engine) ->
      Printf.printf "%s:\n" label;
      let batches = Pts_clients.Client.run_batches engine queries ~batches:10 in
      List.iteri
        (fun i (r : Pts_clients.Client.run_result) ->
          let n = Pts_clients.Client.total r.Pts_clients.Client.tally in
          Printf.printf "  burst %2d: %4d queries, %6.2f ms, %6d steps/query%s\n" (i + 1) n
            (1000.0 *. r.Pts_clients.Client.seconds)
            (if n = 0 then 0 else r.Pts_clients.Client.steps / n)
            (if r.Pts_clients.Client.summaries_after > 0 then
               Printf.sprintf ", %d summaries cached" r.Pts_clients.Client.summaries_after
             else ""))
        batches;
      print_newline ())
    engines
