(* Benchmark-side spans around each call into a layer: name, start, end,
   parent, request id, and the allocation of the call from Gc.quick_stat
   deltas. Spans stay in memory and are written out once, at the end of
   a traced run. A recorder that is off just runs the call. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  req : string;  (** request id; "" when the span belongs to no request *)
  start : float;  (** seconds since the recorder was created *)
  stop : float;
  words : float;  (** words allocated inside the span, children included *)
  major_gcs : int;
}

type t = {
  on : bool;
  epoch : float;
  mutable next : int;
  mutable stack : int list;  (** open spans, innermost first *)
  mutable req : string;
  mutable done_ : span list;  (** newest first *)
}

let create ~on = { on; epoch = Unix.gettimeofday (); next = 0; stack = []; req = ""; done_ = [] }

let allocated () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words, s.Gc.major_collections)

(* [record t name f] runs [f] inside a span; a raise still closes it. *)
let record t ?req name f =
  if not t.on then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    let saved_req = t.req in
    Option.iter (fun r -> t.req <- r) req;
    let this_req = t.req in
    t.stack <- id :: t.stack;
    let w0, g0 = allocated () in
    let start = Unix.gettimeofday () -. t.epoch in
    let close () =
      let stop = Unix.gettimeofday () -. t.epoch in
      let w1, g1 = allocated () in
      t.stack <- List.tl t.stack;
      t.req <- saved_req;
      t.done_ <-
        { id; parent; name; req = this_req; start; stop; words = w1 -. w0; major_gcs = g1 - g0 }
        :: t.done_
    in
    Fun.protect ~finally:close f
  end

let spans t = List.rev t.done_
let duration s = s.stop -. s.start

(* Self time: the span's duration minus the time its direct children
   cover. Calls are nested and single-threaded, so children never
   overlap each other. *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  List.map (fun s -> (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id))) spans

(* Per name: self time (s) and allocated words of every span so named. *)
let by_name spans name =
  List.filter_map (fun (s, self) -> if String.equal s.name name then Some (self, s.words) else None) (self_times spans)

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun (s, self) ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"name\":%S,\"req\":%S,\"start_us\":%.1f,\"end_us\":%.1f,\"self_us\":%.1f,\"alloc_words\":%.0f,\"major_gcs\":%d}\n"
            s.id s.parent s.name s.req (s.start *. 1e6) (s.stop *. 1e6) (self *. 1e6) s.words s.major_gcs)
        (self_times (spans t)))
