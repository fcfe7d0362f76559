(* The ptsto benchmark: one named workload per run.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints a human-readable block, then, as the last line, one JSON object
   {correct, attempted, failed, metrics}: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1. A traced run also
   writes its spans to perfbench/out/. Exits 1 on any correctness mismatch or
   failed request, 2 on bad arguments. *)

let usage () =
  prerr_endline
    ("usage: bench.exe --workload (" ^ String.concat "|" Metrics.workloads
   ^ ") --seed N --seconds S --trace 0|1");
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and traced = ref false in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> (match int_of_string_opt n with Some n -> seed := n | None -> usage ()); parse rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with Some s when s > 0.0 -> seconds := s | _ -> usage ());
      parse rest
    | "--trace" :: t :: rest ->
      (match t with "0" -> traced := false | "1" -> traced := true | _ -> usage ());
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = !seed and seconds = !seconds and traced = !traced in
  let spans, tally, mismatches, values, notes =
    match !workload with
    | "oneshot-sweep" -> Sweep.run ~seed ~seconds ~traced
    | "serve-read" -> Serving.run ~edits:false ~seed ~seconds ~traced
    | "serve-edit" -> Serving.run ~edits:true ~seed ~seconds ~traced
    | _ -> usage ()
  in
  let value name =
    match List.assoc_opt name values with Some v -> v | None -> failwith ("metric not computed: " ^ name)
  in
  Printf.printf "workload %s, seed %d, %.0f s, trace %b\n" !workload seed seconds traced;
  List.iter (fun n -> Printf.printf "  %s\n" n) notes;
  List.iter
    (fun name ->
      let m = Metrics.find name in
      Printf.printf "  %-24s %14.4f %s\n" name (value name) m.Metrics.unit_)
    (List.map (fun m -> m.Metrics.name) Metrics.end_to_end @ [ "unresolved_frac"; "error_frac" ]);
  List.iter (fun m -> Printf.printf "MISMATCH %s\n" m) mismatches;
  if traced then begin
    (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
    let path = Printf.sprintf "perfbench/out/spans-%s-seed%d.jsonl" !workload seed in
    Spans.write spans path;
    Printf.printf "  spans written to %s\n" path
  end;
  let correct = mismatches = [] && tally.Metrics.failed = 0 in
  let shown = if traced then Metrics.per_layer else Metrics.end_to_end in
  print_endline
    (Metrics.result_line ~correct ~attempted:tally.Metrics.attempted ~failed:tally.Metrics.failed
       (List.map (fun m -> (m, value m.Metrics.name)) shown));
  exit (if correct then 0 else 1)
