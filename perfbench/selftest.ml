(* Self-tests for the benchmark's own code: the tail percentile, failure
   counting, the speed calibration's scaling, name validity, and a round-trip of BENCHMARK.json against
   the metric catalogue.

     selftest.exe path/to/BENCHMARK.json *)

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" what
  end

let floats a b = List.map float_of_int (List.init (b - a + 1) (fun i -> a + i))

let test_tail () =
  (* 1..100: p99 and p95 have 1 and 5 samples beyond them, p90 has 10 *)
  check "tail of 100" (Metrics.tail (floats 1 100) = Some (0.9, 90.0));
  check "tail of 1000" (Metrics.tail (floats 1 1000) = Some (0.99, 990.0));
  check "tail of 20 is the median" (Metrics.tail (floats 1 20) = Some (0.5, 10.0));
  check "tail of 19 is undefined" (Metrics.tail (floats 1 19) = None);
  check "tail ignores input order" (Metrics.tail (List.rev (floats 1 100)) = Some (0.9, 90.0));
  check "tail beyond 1" (Metrics.tail ~beyond:1 (floats 1 100) = Some (0.99, 99.0));
  check "tail capped" (Metrics.tail ~cap:0.75 (floats 1 1000) = Some (0.75, 750.0));
  check "cap below what the samples support" (Metrics.tail ~cap:0.95 (floats 1 100) = Some (0.9, 90.0));
  check "median" (Metrics.median [ 3.0; 1.0; 2.0 ] = 2.0 && Metrics.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.0)

let test_failures () =
  let t = Metrics.tally () in
  check "nothing attempted counts as all failed" (Metrics.failure_frac t = 1.0);
  List.iter (Metrics.attempt t) [ true; false; true; true ];
  check "attempts counted" (t.Metrics.attempted = 4 && t.Metrics.failed = 1);
  check "failure fraction" (Metrics.failure_frac t = 0.25);
  check "ratio of nothing" (Metrics.ratio 3 0 = 0.0)

let rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | text ->
    List.find_map
      (fun l -> Scanf.sscanf_opt l "VmRSS: %d kB" (fun kb -> float_of_int kb /. 1024.0))
      (String.split_on_char '\n' text)
  | exception Sys_error _ -> None

let test_calib () =
  (* passes of 10 ms and 30 ms around segment 0, 30 ms and 50 ms around segment 1 *)
  let scale = Calib.scale_of_passes [ 0.010; 0.030; 0.050 ] in
  check "scaled by the mean of the passes around a segment" (scale 0 = Calib.nominal /. 0.020);
  check "each segment has its own passes" (scale 1 = Calib.nominal /. 0.040);
  check "an open segment has no scale" (match scale 2 with _ -> false | exception Invalid_argument _ -> true);
  let before = rss_mb () in
  let t = Calib.create () in
  Calib.boundary t;
  check "a live pass is timed" (Calib.segment t = 1 && List.for_all (fun p -> p > 0.0) (Calib.passes t));
  (* peak memory is reported without the graphs, so their footprint must be what they add *)
  check "the reference graphs' footprint"
    (match (before, rss_mb ()) with
    | Some a, Some b -> Float.abs (b -. a -. Calib.footprint_mb t) < 2.0
    | _ -> true)

let test_names () =
  List.iter (fun n -> check ("valid " ^ n) (Metrics.valid_name n)) [ "latency_p50_ms"; "serve-read"; "core.steps"; "9a" ];
  List.iter
    (fun n -> check ("invalid " ^ n) (not (Metrics.valid_name n)))
    [ ""; "_x"; ".x"; "a b"; "a/b"; "caf\xc3\xa9"; String.make 65 'a' ];
  List.iter
    (fun m -> check ("catalogue name " ^ m.Metrics.name) (Metrics.valid_name m.Metrics.name && Metrics.valid_unit m.Metrics.unit_))
    (Metrics.end_to_end @ Metrics.per_layer);
  check "valid units" (List.for_all Metrics.valid_unit [ "ms"; "1/s"; "%"; "count" ]);
  check "invalid units" (not (List.exists Metrics.valid_unit [ ""; "m s"; String.make 17 'x' ]))

let test_spec path =
  let spec = Metrics.read_spec path in
  let text = Trace.Json.to_string (Metrics.spec_to_json spec) in
  (match Trace.Json.of_string text with
  | Ok j -> check "BENCHMARK.json round-trips" (Metrics.spec_of_json j = spec)
  | Error e -> check ("re-parse: " ^ e) false);
  check "end-to-end metrics match the catalogue" (spec.Metrics.spec_e2e = Metrics.end_to_end);
  check "per-layer metrics match the catalogue" (spec.Metrics.spec_layer = Metrics.per_layer);
  check "workloads match" (List.map (fun w -> w.Metrics.w_name) spec.Metrics.workloads = Metrics.workloads);
  let rejects what j =
    check ("rejects " ^ what) (match Metrics.spec_of_json j with _ -> false | exception Metrics.Bad _ -> true)
  in
  let with_field k v =
    match Metrics.spec_to_json spec with
    | Trace.Json.Obj kvs -> Trace.Json.Obj (List.map (fun (k', v') -> if k = k' then (k, v) else (k', v')) kvs)
    | j -> j
  in
  rejects "an extra key"
    (match Metrics.spec_to_json spec with Trace.Json.Obj kvs -> Trace.Json.Obj (("extra", Trace.Json.Null) :: kvs) | j -> j);
  rejects "a bad metric name"
    (Metrics.spec_to_json { spec with Metrics.spec_layer = [ Metrics.layer "bad name" "ms" ] });
  rejects "a bound above 0.25"
    (Metrics.spec_to_json { spec with Metrics.spec_e2e = [ Metrics.e2e "setup_s" "s" 0.5 ] });
  rejects "a missing setup_s" (Metrics.spec_to_json { spec with Metrics.spec_e2e = [ Metrics.e2e "sweep_s" "s" 0.1 ] });
  rejects "one workload" (Metrics.spec_to_json { spec with Metrics.workloads = [ List.hd spec.Metrics.workloads ] });
  rejects "run_seconds 0" (with_field "run_seconds" (Trace.Json.Int 0))

let () =
  let path = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCHMARK.json" in
  test_tail ();
  test_failures ();
  test_calib ();
  test_names ();
  test_spec path;
  if !failures > 0 then exit 1;
  print_endline "perfbench self-test ok"
