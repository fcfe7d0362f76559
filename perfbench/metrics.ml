(* The benchmark's metric catalogue, its sample statistics and the
   BENCHMARK.json schema. The catalogue is the single source of metric
   names and units: the result line is rendered from it, and the
   self-test holds BENCHMARK.json to it. *)

module J = Trace.Json

(* The workloads, by the names BENCHMARK.json gives them. *)
let workloads = [ "oneshot-sweep"; "serve-read"; "serve-edit" ]

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better; bound : float option }
(** [bound] is set exactly on end-to-end metrics. *)

let e2e name unit_ bound = { name; unit_; better = Lower; bound = Some bound }
let layer ?(better = Lower) name unit_ = { name; unit_; better; bound = None }

(* End-to-end metrics every workload reports (see README.md for what each
   means on each workload). [unresolved_frac] and [error_frac] can be 0,
   so they sit in the per-layer list and in the human-readable block. *)
let end_to_end =
  [
    e2e "sweep_s" "s" 0.25;
    e2e "setup_s" "s" 0.25;
    e2e "latency_p50_ms" "ms" 0.25;
    e2e "latency_tail_ms" "ms" 0.25;
    { name = "throughput_rps"; unit_ = "1/s"; better = Higher; bound = Some 0.25 };
    e2e "peak_mem_mb" "MB" 0.15;
  ]

let per_layer =
  [
    layer "frontend.ms" "ms";
    layer "frontend.alloc_mwords" "Mwords";
    layer "andersen.ms" "ms";
    layer "andersen.alloc_mwords" "Mwords";
    layer "andersen.propagations" "count";
    layer "andersen.collapse_passes" "count";
    layer "andersen.collapsed_units" "count";
    layer "andersen.cg_edges" "count";
    layer "pag.nodes" "count";
    layer "pag.edges" "count";
    layer "clients.points_ms" "ms";
    layer "clients.points" "count";
    layer ~better:Higher "clients.dedup_ratio" "ratio";
    layer "core.batch_ms" "ms";
    layer "core.steps" "count";
    layer "core.queries" "count";
    layer "core.unknown" "count";
    layer ~better:Higher "core.summary_hit_ratio" "ratio";
    layer "core.unique_summaries" "count";
    layer "core.alloc_mwords" "Mwords";
    layer "clients.diag_ms" "ms";
    layer ~better:Higher "clients.witness_found" "count";
    layer "clients.render_ms" "ms";
    layer "clients.report_bytes" "bytes";
    layer "serve.decode_us" "us";
    layer "serve.handle_ms" "ms";
    layer "serve.encode_us" "us";
    layer "serve.response_bytes" "bytes";
    layer ~better:Higher "tier.hit_ratio" "ratio";
    layer "tier.evictions" "count";
    layer "tier.size" "count";
    layer "incr.edit_ms" "ms";
    layer "incr.dirty" "count";
    layer "incr.oracle_invalidated" "count";
    layer ~better:Higher "incr.retention" "ratio";
    layer "incr.requery_ms" "ms";
    layer "unresolved_frac" "ratio";
    layer "error_frac" "ratio";
    layer "trace.overhead_frac" "ratio";
    layer "trace.spans" "count";
  ]

let find name = List.find (fun m -> String.equal m.name name) (end_to_end @ per_layer)

(* [A-Za-z0-9_.-], at most 64 long, starting with a letter or digit. *)
let valid_name s =
  let ok_char = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false in
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok_char s

let valid_unit s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
    | _ -> false
  in
  String.length s >= 1 && String.length s <= 16 && String.for_all ok_char s

(* ------------------------------ statistics ------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of an ascending array, [p] in (0, 1]. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then nan else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median xs = percentile (sorted xs) 0.5

(* The tail percentile: the highest of the candidates up to [cap] that
   still has at least [beyond] samples strictly above its rank, so that it
   is not set by a handful of outliers. Returns (percentile, value); [None]
   when even the median has fewer than [beyond] samples above it. A
   workload caps it at the highest percentile its shortest runs support:
   a timed run's sample count follows the machine's speed, and a tail that
   moved from p75 to p90 between runs would not be comparable. *)
let tail_candidates = [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ]

let tail ?(beyond = 10) ?(cap = 1.0) xs =
  let a = sorted xs in
  let n = Array.length a in
  let rank p = max 1 (int_of_float (ceil (p *. float_of_int n))) in
  List.find_map
    (fun p -> if p <= cap && n - rank p >= beyond then Some (p, percentile a p) else None)
    tail_candidates

(* Failures counted against attempts: a raised run and a non-ok response
   both count, and so does every attempt when nothing was attempted. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let attempt t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let failure_frac t = if t.attempted = 0 then 1.0 else float_of_int t.failed /. float_of_int t.attempted

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Peak resident set of the process so far, from the kernel; the OCaml
   heap's peak where /proc is unavailable. Workloads read it when their
   timed phase ends, before the correctness checks allocate. *)
let peak_mem_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec scan () =
          let l = input_line ic in
          match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with Some kb -> float_of_int kb /. 1024.0 | None -> scan ()
        in
        scan ())
  in
  try from_proc ()
  with _ -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* ------------------------------- results ------------------------------- *)

(* %.17g keeps every digit of a measured double. *)
let number x = if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x else Printf.sprintf "%.17g" x

let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (m, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (number v) m.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " fields)

(* ------------------------- BENCHMARK.json schema ------------------------ *)

type workload = { w_name : string; w_why : string }

type spec = {
  command : string list;
  paths : string list;
  run_seconds : int;
  workloads : workload list;
  spec_e2e : metric list;
  spec_layer : metric list;
}

let better_to_string = function Lower -> "lower" | Higher -> "higher"

let spec_to_json s =
  let strs l = J.List (List.map (fun x -> J.String x) l) in
  let metric m =
    J.Obj
      ([ ("name", J.String m.name); ("unit", J.String m.unit_); ("better", J.String (better_to_string m.better)) ]
      @ match m.bound with Some b -> [ ("bound", J.Float b) ] | None -> [])
  in
  J.Obj
    [
      ("command", strs s.command);
      ("paths", strs s.paths);
      ("run_seconds", J.Int s.run_seconds);
      ( "workloads",
        J.List (List.map (fun w -> J.Obj [ ("name", J.String w.w_name); ("why", J.String w.w_why) ]) s.workloads) );
      ("end_to_end", J.List (List.map metric s.spec_e2e));
      ("per_layer", J.List (List.map metric s.spec_layer));
    ]

exception Bad of string

let spec_of_json j =
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let keys_exactly what want = function
    | J.Obj kvs ->
      let got = List.sort compare (List.map fst kvs) in
      if got <> List.sort compare want then bad "%s: keys %s" what (String.concat "," got)
    | _ -> bad "%s: not an object" what
  in
  let field k o = match J.member k o with Some v -> v | None -> bad "missing %s" k in
  let str k o = match field k o with J.String s -> s | _ -> bad "%s: not a string" k in
  let list k o = match field k o with J.List l -> l | _ -> bad "%s: not a list" k in
  let strings k o = List.map (function J.String s -> s | _ -> bad "%s: not strings" k) (list k o) in
  let unique what names =
    if List.length (List.sort_uniq compare names) <> List.length names then bad "%s: duplicate name" what
  in
  keys_exactly "BENCHMARK.json"
    [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ]
    j;
  let metric ~e2e o =
    keys_exactly "metric" (if e2e then [ "name"; "unit"; "better"; "bound" ] else [ "name"; "unit"; "better" ]) o;
    let name = str "name" o and unit_ = str "unit" o in
    if not (valid_name name) then bad "bad metric name %S" name;
    if not (valid_unit unit_) then bad "bad unit %S" unit_;
    let better =
      match str "better" o with "lower" -> Lower | "higher" -> Higher | b -> bad "better %S" b
    in
    let bound =
      if not e2e then None
      else
        match field "bound" o with
        | J.Float b when b > 0.0 && b <= 0.25 -> Some b
        | _ -> bad "%s: bound must be in (0, 0.25]" name
    in
    { name; unit_; better; bound }
  in
  let workloads =
    List.map
      (fun o ->
        keys_exactly "workload" [ "name"; "why" ] o;
        let w = { w_name = str "name" o; w_why = str "why" o } in
        if not (valid_name w.w_name) then bad "bad workload name %S" w.w_name;
        if String.length w.w_why > 200 || String.contains w.w_why '\n' then bad "why of %s" w.w_name;
        w)
      (list "workloads" j)
  in
  let spec =
    {
      command = strings "command" j;
      paths = strings "paths" j;
      run_seconds = (match field "run_seconds" j with J.Int n when n >= 1 && n <= 60 -> n | _ -> bad "run_seconds");
      workloads;
      spec_e2e = List.map (metric ~e2e:true) (list "end_to_end" j);
      spec_layer = List.map (metric ~e2e:false) (list "per_layer" j);
    }
  in
  let n = List.length in
  if n workloads < 2 || n workloads > 8 then bad "2 to 8 workloads";
  if n spec.spec_e2e < 1 || n spec.spec_e2e > 16 then bad "1 to 16 end-to-end metrics";
  if n spec.spec_layer < 1 || n spec.spec_layer > 128 then bad "1 to 128 per-layer metrics";
  if n spec.paths < 1 || n spec.paths > 16 then bad "1 to 16 paths";
  if n spec.command < 1 || n spec.command > 32 then bad "1 to 32 command strings";
  unique "workloads" (List.map (fun w -> w.w_name) workloads);
  unique "metrics" (List.map (fun m -> m.name) (spec.spec_e2e @ spec.spec_layer));
  (match List.find_opt (fun m -> m.name = "setup_s") spec.spec_e2e with
  | Some { unit_ = "s"; better = Lower; _ } -> ()
  | _ -> bad "setup_s (s, lower) is required");
  spec

let read_spec path =
  let ic = open_in_bin path in
  let text = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  match J.of_string text with Ok j -> spec_of_json j | Error e -> raise (Bad e)
