module Hstack = Pts_util.Hstack

type state = Kernel.state = S1 | S2

let state_to_int = Kernel.state_to_int
let pp_state = Kernel.pp_state

type summary = { objs : int list; tuples : (int * Hstack.t * state) list }

(* Algorithm 3 is the kernel's local walker under the exact policy: every
   field is tracked precisely, so no match edges and no jumps arise. *)
let compute pag conf budget ?trace v0 f0 s0 =
  let r = Kernel.local_walk ?observe:trace ~policy:Kernel.exact_policy pag conf budget v0 f0 s0 in
  { objs = r.Kernel.lr_objs; tuples = r.Kernel.lr_frontier }

(* ---------------------- the footprinted summary store ---------------- *)

module Tbl = Kernel.Key_tbl

type store = { summaries : summary Tbl.t; footprints : int list Tbl.t }

let store () = { summaries = Tbl.create 4096; footprints = Tbl.create 4096 }

let key u f s = (u, Hstack.id f, state_to_int s)

let points st =
  let pts = Hashtbl.create 256 in
  Tbl.iter (fun (n, _f, s) _ -> Hashtbl.replace pts (n, s) ()) st.summaries;
  Hashtbl.length pts

let add st key summary fp =
  Tbl.replace st.summaries key summary;
  Tbl.replace st.footprints key fp

(* A PPTA run that also records which nodes it visited: the entry's
   invalidation footprint under post-freeze edits. *)
let derive pag conf budget u f s =
  let seen = Hashtbl.create 32 in
  let fp = ref [] in
  let trace v _ _ =
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.add seen v ();
      fp := v :: !fp
    end
  in
  let summary = compute pag conf budget ~trace u f s in
  (summary, List.sort compare !fp)

let derive_missing st (env : Kernel.env) key u f s =
  Trace.emit env.sink (Trace.Summary_miss { engine = env.name; node = u });
  let summary, fp = derive env.pag env.conf env.budget u f s in
  add st key summary fp;
  summary

(* A real PPTA footprint at least holds the root, so an empty one can
   only come from a producer that skipped tracing: dropped too. *)
let stale is_dirty = function [] -> true | fp -> List.exists is_dirty fp

let invalidate ?(on_drop = ignore) st pag dirty =
  let n = Pag.node_count pag in
  let dirtyb = Bytes.make (max 1 n) '\000' in
  List.iter (fun d -> if d >= 0 && d < n then Bytes.set dirtyb d '\001') dirty;
  let is_dirty v = Bytes.get dirtyb v = '\001' in
  let doomed = ref [] in
  Tbl.iter
    (fun key _ ->
      let fp = Option.value ~default:[] (Tbl.find_opt st.footprints key) in
      if stale is_dirty fp then doomed := key :: !doomed)
    st.summaries;
  List.iter
    (fun key ->
      Tbl.remove st.summaries key;
      Tbl.remove st.footprints key;
      on_drop key)
    !doomed;
  (List.length !doomed, Tbl.length st.summaries)

let solve ?satisfy ?prune ?(fastpath = ignore) ~miss st (env : Kernel.env) v =
  let expand u f s =
    let summary =
      if not (Pag.has_local_edges env.pag u) then begin
        fastpath ();
        { objs = []; tuples = [ (u, f, s) ] }
      end
      else
        let key = key u f s in
        match Tbl.find_opt st.summaries key with
        | Some summary ->
          Trace.emit env.sink (Trace.Summary_hit { engine = env.name; node = u });
          summary
        | None -> miss key u f s
    in
    {
      Kernel.lr_objs = summary.objs;
      lr_match_objs = [];
      lr_frontier = summary.tuples;
      lr_jumps = [];
    }
  in
  (* the accumulated set grows towards the answer from below, so the only
     sound early exit for an anti-monotone predicate is refutation *)
  let stop = Option.map (fun pred acc -> not (pred acc)) satisfy in
  Kernel.solve ?stop ?prune env.pag env.budget expand v
