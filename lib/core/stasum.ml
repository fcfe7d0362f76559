module Hstack = Pts_util.Hstack
module Tbl = Kernel.Key_tbl

type t = {
  env : Kernel.env; (* its budget is the per-query one of the online phase *)
  store : Ppta.store;
  mutable truncated : bool;
}

let name = "stasum"

let summary_count t = Tbl.length t.store.summaries

let summary_points t = Ppta.points t.store
let truncated t = t.truncated
let env t = t.env
let stats t = t.env.Kernel.stats

(* Frontier expansion, context-free: the summary keys a worklist could
   request next, regardless of calling context. *)
let successors pag (x, f1, s1) =
  match s1 with
  | Ppta.S1 ->
    List.map (fun (_, y) -> (y, f1, Ppta.S1)) (Pag.exit_in pag x)
    @ List.map (fun (_, y) -> (y, f1, Ppta.S1)) (Pag.entry_in pag x)
    @ List.map (fun y -> (y, f1, Ppta.S1)) (Pag.global_in pag x)
  | Ppta.S2 ->
    List.map (fun (_, y) -> (y, f1, Ppta.S2)) (Pag.exit_out pag x)
    @ List.map (fun (_, y) -> (y, f1, Ppta.S2)) (Pag.entry_out pag x)
    @ List.map (fun y -> (y, f1, Ppta.S2)) (Pag.global_out pag x)

let offline t max_summaries =
  let pag = t.env.Kernel.pag in
  let queue = Queue.create () in
  let seen : unit Tbl.t = Tbl.create 4096 in
  (* [visit] dedups every key encountered; keys whose node has local edges
     are queued for PPTA, the others take Algorithm 4's fast path and their
     global-edge successors are chased transitively (cycles are cut by
     [seen]). *)
  let rec visit (u, f, s) =
    if not (Tbl.mem seen (Ppta.key u f s)) then begin
      Tbl.add seen (Ppta.key u f s) ();
      if Pag.has_local_edges pag u then Queue.add (u, f, s) queue
      else List.iter visit (successors pag (u, f, s))
    end
  in
  (* seeds: every queryable node (vars and globals touched by any edge) *)
  for n = 0 to Pag.node_count pag - 1 do
    if (not (Pag.is_obj pag n)) && Pag.has_local_edges pag n then
      visit (n, Hstack.empty, Ppta.S1)
  done;
  let budget = Budget.unlimited () in
  let depth_aborts = ref 0 in
  while (not (Queue.is_empty queue)) && not t.truncated do
    let u, f, s = Queue.pop queue in
    if Tbl.length t.store.summaries >= max_summaries then t.truncated <- true
    else begin
      match Ppta.derive pag t.env.Kernel.conf budget u f s with
      | summary, fp ->
        Ppta.add t.store (Ppta.key u f s) summary fp;
        List.iter
          (fun tuple -> List.iter visit (successors pag tuple))
          summary.Ppta.tuples
      | exception Budget.Out_of_budget ->
        (* field-depth overflow on this seed: drop it, note the loss *)
        incr depth_aborts
    end
  done;
  if !depth_aborts > 0 then
    Trace.emit t.env.Kernel.sink
      (Trace.Counter { engine = name; name = "offline_depth_aborts"; delta = !depth_aborts })

let create ?conf ?trace ?(max_summaries = 300_000) pag =
  let t =
    {
      env = Kernel.env ~name ?conf ?trace pag;
      store = Ppta.store ();
      truncated = false;
    }
  in
  offline t max_summaries;
  t

(* Dropped offline entries are recovered lazily by the online backfill. *)
let invalidate t dirty = Ppta.invalidate t.store t.env.Kernel.pag dirty

(* Online: Algorithm 4's worklist over the precomputed store; keys the
   offline phase missed are backfilled on demand. *)
let points_to t ?satisfy v =
  Kernel.run_query t.env v (fun prune ->
      Ppta.solve ?satisfy ?prune ~miss:(Ppta.derive_missing t.store t.env) t.store t.env v)
