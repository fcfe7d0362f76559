(* Machine-speed calibration. The benchmark runs on shared virtual
   machines whose effective speed drifts by tens of percent, in spells of
   seconds to minutes, and process CPU time drifts with it. So the
   workloads interleave their timed work with short passes of a fixed
   reference computation and scale each timed interval by how fast the
   passes around it ran: a reported time is what the interval would have
   taken had each reference pass taken [nominal] seconds.

   The reference is benchmark code only, so no change to the analysis can
   speed it up or slow it down. A pass is depth-first reachability walks
   over two fixed random graphs — integer arrays read at random, as a CFL
   traversal reads its graph: full walks over a graph that fits in the
   core's own caches, then a bounded walk over one as large as the
   analysis heap, whose speed follows what the machine's neighbours do
   to the shared cache, as the analysis's speed does. On the machine in
   README.md the analysis slowed and sped up with the large walk far more
   closely than with the small one alone. The graphs live outside the
   OCaml heap and a pass allocates nothing, so neither the garbage
   collector nor the analysis heap's size enters it. *)

open Bigarray

type graph = {
  nodes : int;
  succ : (int32, int32_elt, c_layout) Array1.t;  (** [degree] successors per node *)
  mark : (int32, int32_elt, c_layout) Array1.t;  (** the last walk that reached each node *)
  stack : (int32, int32_elt, c_layout) Array1.t;
  mutable walk : int;
}

let degree = 4

(* The same graph in every run: xorshift from a fixed state. *)
let graph ~nodes ~stack =
  let a1 n = Array1.create int32 c_layout n in
  let succ = a1 (nodes * degree) and mark = a1 nodes and st = a1 stack in
  let x = ref 0x2545F491 in
  for i = 0 to (nodes * degree) - 1 do
    x := !x lxor ((!x lsl 13) land 0x3FFFFFFF);
    x := !x lxor (!x lsr 17);
    x := !x lxor ((!x lsl 5) land 0x3FFFFFFF);
    succ.{i} <- Int32.of_int (!x land (nodes - 1))
  done;
  Array1.fill mark 0l;
  Array1.fill st 0l;
  { nodes; succ; mark; stack = st; walk = 0 }

let bytes g = 4 * (Array1.dim g.succ + Array1.dim g.mark + Array1.dim g.stack)

(* A walk from the next root that stops once [visits] nodes are reached;
   returns how many were. *)
let walk g visits =
  g.walk <- g.walk + 1;
  let s = Int32.of_int g.walk in
  let root = g.walk * 7919 land (g.nodes - 1) in
  g.stack.{0} <- Int32.of_int root;
  g.mark.{root} <- s;
  let sp = ref 1 and seen = ref 1 in
  while !sp > 0 && !seen < visits do
    decr sp;
    let v = Int32.to_int g.stack.{!sp} in
    for k = 0 to degree - 1 do
      let w = Int32.to_int g.succ.{(v * degree) + k} in
      if g.mark.{w} <> s then begin
        g.mark.{w} <- s;
        g.stack.{!sp} <- Int32.of_int w;
        incr sp;
        incr seen
      end
    done
  done;
  !seen

(* A quarter to a third of a pass: full walks over 16 Ki nodes (under 1 MB). *)
let small_nodes = 1 lsl 14
let small_walks = 16

(* The rest: one walk of 400 Ki nodes into 4 Mi (80 MB). A walk stops with
   at most [visits + degree] nodes marked, so its stack is that deep. *)
let large_nodes = 1 lsl 22
let large_visits = 400_000

(* The seconds one pass takes at the reference speed: about its median on
   the machine in README.md. A constant, so that scaled times stay
   comparable between runs, seeds and commits. *)
let nominal = 0.025

type t = {
  small : graph;
  large : graph;
  mutable passes : float list;  (** newest first *)
  mutable segment : int;
}

(* One reference pass; its wall seconds. *)
let pass t =
  let t0 = Unix.gettimeofday () in
  let n = ref 0 in
  for _ = 1 to small_walks do
    n := !n + walk t.small small_nodes
  done;
  n := !n + walk t.large large_visits;
  let dt = Unix.gettimeofday () -. t0 in
  if !n = 0 then invalid_arg "Calib.pass";
  dt

(* A calibrated run: its timed work falls into numbered segments, and a
   reference pass runs at every segment boundary. Work timed in segment
   [i] is scaled by [nominal] over the mean of the passes that open and
   close it, once the run is over. [create] builds the graphs, about
   82 MB that stay resident for the rest of the process. *)
let create () =
  let t =
    {
      small = graph ~nodes:small_nodes ~stack:small_nodes;
      large = graph ~nodes:large_nodes ~stack:(large_visits + degree);
      passes = [];
      segment = 0;
    }
  in
  t.passes <- [ pass t ];
  t

(* The resident memory the graphs add, in MB. *)
let footprint_mb t = float_of_int (bytes t.small + bytes t.large) /. 1048576.0

(* The segment that timed work falls into now. *)
let segment t = t.segment

(* Close the current segment with a pass, which also opens the next. *)
let boundary t =
  t.passes <- pass t :: t.passes;
  t.segment <- t.segment + 1

let passes t = List.rev t.passes

(* The factor for work timed in segment [i] of a run whose passes, oldest
   first, are [passes]; the segment must be closed. *)
let scale_of_passes passes =
  let a = Array.of_list passes in
  fun i ->
    if i + 1 >= Array.length a then invalid_arg "Calib.scale: segment not closed";
    nominal /. ((a.(i) +. a.(i + 1)) /. 2.0)

let scale t = scale_of_passes (passes t)
