module Hstack = Pts_util.Hstack

type state = S1 | S2

let state_to_int = function S1 -> 1 | S2 -> 2

let pp_state fmt s = Format.pp_print_string fmt (match s with S1 -> "S1" | S2 -> "S2")

(* ------------------------ RRP context machine ----------------------- *)

let push_ctx pag c i = if Pag.is_recursive_site pag i then c else Hstack.push c i

let pop_ctx pag c i =
  if Pag.is_recursive_site pag i then Some c
  else
    match Hstack.peek c with
    | None -> Some c (* partially balanced: fall off into an unknown caller *)
    | Some top -> if top = i then Some (Hstack.pop_exn c) else None

(* ------------------------- local-edge walker ------------------------ *)

type policy = {
  exact : bool;
  refined : dst:Pag.node -> fld:int -> base:Pag.node -> bool;
  note_match : dst:Pag.node -> fld:int -> base:Pag.node -> unit;
  match_pts : int -> int list;
  match_flows : int -> Pag.node list;
}

let exact_policy =
  {
    exact = true;
    refined = (fun ~dst:_ ~fld:_ ~base:_ -> true);
    note_match = (fun ~dst:_ ~fld:_ ~base:_ -> ());
    match_pts = (fun _ -> []);
    match_flows = (fun _ -> []);
  }

type local_result = {
  lr_objs : int list;
  lr_match_objs : int list;
  lr_frontier : (Pag.node * Hstack.t * state) list;
  lr_jumps : (Pag.node * Hstack.t * state) list;
}

let frontier_only u f s = { lr_objs = []; lr_match_objs = []; lr_frontier = [ (u, f, s) ]; lr_jumps = [] }

(* (node, field-stack id, state) — the identity of a local query state,
   also the key every summary table in the system uses. *)
module Key = struct
  type t = int * int * int

  let equal (a : t) (b : t) = a = b
  let hash ((n, f, s) : t) = (((n * 31) + f) * 31) + s
end

module Key_tbl = Hashtbl.Make (Key)
module Visited = Key_tbl

(* ------------------------- Andersen pruning ------------------------- *)

(* A per-query view of the PAG's Andersen oracle. Soundness of the two
   cuts (see kernel.mli); both are skipped for widened field stacks,
   where the traversal itself over-approximates and pruning could shrink
   the (equally over-approximate) answer the unpruned engine gives. *)
type pruner = {
  pr_pag : Pag.t;
  pr_root : Pag.node;
  mutable pr_pruned : int;
  mutable pr_checked : int;
}

let pruner pag ~root =
  if Pag.has_oracle pag then Some { pr_pag = pag; pr_root = root; pr_pruned = 0; pr_checked = 0 }
  else None

let should_prune pr u f s =
  pr.pr_checked <- pr.pr_checked + 1;
  if Fstack.is_widened f then false
  else if Pag.oracle_row_empty pr.pr_pag u then begin
    pr.pr_pruned <- pr.pr_pruned + 1;
    true
  end
  else
    match s with
    | S1 when Hstack.is_empty f ->
      if Pag.oracle_disjoint pr.pr_pag u pr.pr_root then begin
        pr.pr_pruned <- pr.pr_pruned + 1;
        true
      end
      else false
    | S1 | S2 -> false

(* Match-edge cuts: the one place the demand side is strictly coarser
   than Andersen. A field-based match edge for [g] assumes every site
   ever stored to [g] may surface at the load destination; the oracle
   knows which of them actually reach it. Filtering here only changes
   unconverged REFINEPTS passes — the pass a query returns crosses no
   match edges, so the final answer is untouched. *)

let prune_match_site pr ~dst site =
  pr.pr_checked <- pr.pr_checked + 1;
  if Pag.oracle_mem pr.pr_pag dst site then false
  else begin
    pr.pr_pruned <- pr.pr_pruned + 1;
    true
  end

let prune_match_flow pr ~src x =
  pr.pr_checked <- pr.pr_checked + 1;
  if Pag.oracle_disjoint pr.pr_pag src x then begin
    pr.pr_pruned <- pr.pr_pruned + 1;
    true
  end
  else false

(* Harvested allocation sites are small dense ints: an int-keyed table
   avoids the polymorphic hash on every dedup probe. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

let local_walk ?observe ?prune ~policy pag conf budget v0 f0 s0 =
  (* all traversal below goes through Pag.View: the frozen CSR slabs plus
     any post-freeze edit overlay, still allocation-free on the hot path *)
  let visited = Visited.create 64 in
  let objs = ref [] in
  let obj_seen = Int_tbl.create 16 in
  let match_objs = ref [] in
  let match_seen = Int_tbl.create 16 in
  let frontier = ref [] in
  let jumps = ref [] in
  let add_obj site =
    if not (Int_tbl.mem obj_seen site) then begin
      Int_tbl.add obj_seen site ();
      objs := site :: !objs
    end
  in
  let add_match_obj site =
    if not (Int_tbl.mem match_seen site) then begin
      Int_tbl.add match_seen site ();
      match_objs := site :: !match_objs
    end
  in
  let add_frontier node f s = frontier := (node, f, s) :: !frontier in
  let add_jump node f s = jumps := (node, f, s) :: !jumps in
  let rec go v f s =
    let key = (v, Hstack.id f, state_to_int s) in
    if not (Visited.mem visited key) then begin
      Visited.add visited key ();
      (* prune before charging budget: a pruned state costs no steps *)
      let pruned = match prune with Some pr -> should_prune pr v f s | None -> false in
      if not pruned then begin
        Budget.step budget;
        (match observe with Some obs -> obs v f s | None -> ());
        match s with
      | S1 ->
        (* v <-new- o: harvest the object, or flip direction to chase an
           alias of v when fields are still pending (a widened stack may
           be either, so it does both) *)
        if Pag.View.has_new_in pag v then begin
          if Fstack.may_be_empty f then
            Pag.View.iter_new_in pag v (fun o -> add_obj (Pag.obj_site pag o));
          if not (Hstack.is_empty f) then go v f S2
        end;
        Pag.View.iter_assign_in pag v (fun u -> go u f S1);
        (* v = u.g backwards: a pending load(g)-bar, awaiting store(g)-bar *)
        Pag.View.iter_load_in pag v (fun g u ->
            if policy.exact || policy.refined ~dst:v ~fld:g ~base:u then begin
              match Fstack.push conf f (Fstack.load_sym g) with
              | Some f' -> go u f' S1
              | None -> ()
            end
            else begin
              (* field-based match edge: the load observes anything stored
                 to g anywhere under the precomputed field-based
                 approximation, with context and field stack cleared *)
              policy.note_match ~dst:v ~fld:g ~base:u;
              let sites = policy.match_pts g in
              let sites =
                match prune with
                | Some pr -> List.filter (fun site -> not (prune_match_site pr ~dst:v site)) sites
                | None -> sites
              in
              if Fstack.may_be_empty f then List.iter add_match_obj sites;
              if not (Hstack.is_empty f) then
                List.iter
                  (fun site ->
                    let o = Pag.obj_node pag site in
                    Pag.View.iter_new_out pag o (fun d -> add_jump d f S2))
                  sites
            end);
        if Pag.has_global_in pag v then add_frontier v f S1
      | S2 ->
        (* x = v.g forwards: the chased value surfaces out of field g —
           matches a pending store(g) push *)
        Pag.View.iter_load_out pag v (fun g x ->
            if policy.exact || policy.refined ~dst:x ~fld:g ~base:v then
              match Fstack.pop_match f (Fstack.store_sym g) with
              | Some f' -> go x f' S2
              | None -> ());
        Pag.View.iter_assign_out pag v (fun x -> go x f S2);
        (* b.g = v forwards: the chased value sinks into b.g — push
           store(g) and find aliases of the base b *)
        Pag.View.iter_store_out pag v (fun g b ->
            let push_store () =
              match Fstack.push conf f (Fstack.store_sym g) with
              | Some f' -> go b f' S1
              | None -> ()
            in
            if policy.exact then push_store ()
            else begin
              let loads = Pag.loads_of_field pag g in
              let refined_exists = ref false in
              let unrefined_exists = ref false in
              List.iter
                (fun (lb, ldst) ->
                  if policy.refined ~dst:ldst ~fld:g ~base:lb then refined_exists := true
                  else begin
                    unrefined_exists := true;
                    policy.note_match ~dst:ldst ~fld:g ~base:lb
                  end)
                loads;
              (* unrefined loads of g: the value escapes into the
                 field-based approximation and may surface at any of them *)
              if !unrefined_exists then
                List.iter
                  (fun x ->
                    let cut =
                      match prune with Some pr -> prune_match_flow pr ~src:v x | None -> false
                    in
                    if not cut then add_jump x f S2)
                  (policy.match_flows g);
              (* refined loads of g: worth the exact alias detour *)
              if !refined_exists then push_store ()
            end);
        (* v.g = src backwards: store(g)-bar closing a pending load(g)-bar *)
        Pag.View.iter_store_in pag v (fun g src ->
            match Fstack.pop_match f (Fstack.load_sym g) with
            | Some f' -> go src f' S1
            | None -> ());
        if Pag.has_global_out pag v then add_frontier v f S2
      end
    end
  in
  go v0 f0 s0;
  { lr_objs = !objs; lr_match_objs = !match_objs; lr_frontier = !frontier; lr_jumps = !jumps }

(* ------------------------ Algorithm 4 worklist ---------------------- *)

type expander = Pag.node -> Hstack.t -> state -> local_result

module Seen = Hashtbl.Make (struct
  type t = int * int * int * int (* node, fstack id, state, ctx id *)

  let equal (a : t) (b : t) = a = b
  let hash ((n, f, s, c) : t) = (((((n * 31) + f) * 31) + s) * 31) + c
end)

let solve ?stop ?prune pag budget (expand : expander) v =
  let results = ref Query.Target_set.empty in
  let seen = Seen.create 256 in
  let work = Queue.create () in
  let propagate u f s c =
    let key = (u, Hstack.id f, state_to_int s, Hstack.id c) in
    if not (Seen.mem seen key) then begin
      Seen.add seen key ();
      let pruned = match prune with Some pr -> should_prune pr u f s | None -> false in
      if not pruned then Queue.add (u, f, s, c) work
    end
  in
  let stop_now () = match stop with Some pred -> pred !results | None -> false in
  propagate v Hstack.empty S1 Hstack.empty;
  let finished = ref (Option.is_some stop && stop_now ()) in
  while (not (Queue.is_empty work)) && not !finished do
    let u, f, s, c = Queue.pop work in
    Budget.step budget;
    let r = expand u f s in
    let before = !results in
    List.iter
      (fun site -> results := Query.Target_set.add { Query.Target.site; hctx = c } !results)
      r.lr_objs;
    (* match-edge harvests are field-based: no heap context *)
    List.iter
      (fun site ->
        results := Query.Target_set.add { Query.Target.site; hctx = Hstack.empty } !results)
      r.lr_match_objs;
    if Option.is_some stop && !results != before && stop_now () then finished := true
    else begin
      List.iter
        (fun (x, f1, s1) ->
          match s1 with
          | S1 ->
            (* traversing backwards: exit descends into a callee (push),
               entry returns to a caller (pop) *)
            Pag.View.iter_exit_in pag x (fun i r ->
                Budget.step budget;
                propagate r f1 S1 (push_ctx pag c i));
            Pag.View.iter_entry_in pag x (fun i a ->
                Budget.step budget;
                match pop_ctx pag c i with
                | Some c' -> propagate a f1 S1 c'
                | None -> ());
            Pag.View.iter_global_in pag x (fun u ->
                Budget.step budget;
                propagate u f1 S1 Hstack.empty)
          | S2 ->
            (* traversing forwards: entry enters a callee (push), exit
               returns to a caller (pop) *)
            Pag.View.iter_exit_out pag x (fun i d ->
                Budget.step budget;
                match pop_ctx pag c i with
                | Some c' -> propagate d f1 S2 c'
                | None -> ());
            Pag.View.iter_entry_out pag x (fun i fo ->
                Budget.step budget;
                propagate fo f1 S2 (push_ctx pag c i));
            Pag.View.iter_global_out pag x (fun u ->
                Budget.step budget;
                propagate u f1 S2 Hstack.empty))
        r.lr_frontier;
      (* match-edge jumps clear the calling context *)
      List.iter
        (fun (x, f1, s1) ->
          Budget.step budget;
          propagate x f1 s1 Hstack.empty)
        r.lr_jumps
    end
  done;
  !results

(* ------------------------- the query driver ------------------------- *)

type env = {
  name : string;
  pag : Pag.t;
  conf : Conf.t;
  budget : Budget.t;
  stats : Pts_util.Stats.t;
  sink : Trace.sink;
}

let env ~name ?(conf = Conf.default) ?(trace = Trace.null) pag =
  let stats = Pts_util.Stats.create () in
  {
    name;
    pag;
    conf;
    budget = Budget.create ~limit:conf.Conf.budget_limit;
    stats;
    sink = Trace.tee (Trace.counting stats) trace;
  }

let run_query env v body =
  let engine = env.name and sink = env.sink in
  let counter name delta = Trace.emit sink (Trace.Counter { engine; name; delta }) in
  Trace.emit sink (Trace.Query_start { engine; node = v });
  Budget.start_query env.budget;
  let prune = if env.conf.Conf.prune then pruner env.pag ~root:v else None in
  let outcome =
    if env.conf.Conf.prune && Pag.oracle_row_empty env.pag v then begin
      (* definite-negative fast path: nothing flows to the root at all *)
      counter "oracle_empty_root" 1;
      Query.Resolved Query.Target_set.empty
    end
    else
      match body prune with
      | ts -> Query.Resolved ts
      | exception Budget.Out_of_budget ->
        Trace.emit sink
          (Trace.Budget_exceeded { engine; node = v; steps = Budget.steps_this_query env.budget });
        Query.Exceeded
  in
  Option.iter
    (fun pr ->
      if pr.pr_checked > 0 then counter "prune_checks" pr.pr_checked;
      if pr.pr_pruned > 0 then counter "pruned_states" pr.pr_pruned)
    prune;
  let resolved, targets =
    match outcome with
    | Query.Resolved ts -> (true, Query.Target_set.cardinal ts)
    | Query.Exceeded -> (false, 0)
  in
  let steps = Budget.steps_this_query env.budget in
  Trace.emit sink (Trace.Query_end { engine; node = v; resolved; targets; steps });
  outcome
