module Bitset = Pts_util.Bitset
module Stats = Pts_util.Stats
module Digraph = Pts_util.Digraph

type t = {
  prog : Ir.program;
  pag : Pag.t;
  cg : Callgraph.t;
  n_fields : int;
  (* Units are PAG nodes first, then dynamically-created (object, field)
     cells. All growable arrays are indexed by unit id. *)
  mutable pts : Bitset.t array;
  mutable delta : Bitset.t array; (* not-yet-propagated frontier per unit *)
  mutable dyn_copy : int list array;
  mutable uf : int array; (* union-find over collapsed copy-SCCs *)
  mutable members : int list array; (* units merged into this rep *)
  mutable n_units : int;
  copy_dedup : (int * int, unit) Hashtbl.t;
  cells : (int, int) Hashtbl.t; (* site * n_fields + fld -> unit *)
  virtuals_at : (int, Builder.call_desc list ref) Hashtbl.t;
  connected : (int * int, unit) Hashtbl.t; (* (site, target method) *)
  reachable : bool array;
  queue : int Queue.t;
  mutable queued : Bytes.t;
  stats : Stats.t;
}

let rec find t u =
  let p = t.uf.(u) in
  if p = u then u
  else begin
    let r = find t p in
    t.uf.(u) <- r;
    r
  end

let grow_units t needed =
  let cap = Array.length t.pts in
  if needed > cap then begin
    let ncap = max (2 * cap) needed in
    let pts = Array.make ncap (Bitset.create ~capacity:1 ()) in
    Array.blit t.pts 0 pts 0 t.n_units;
    let delta = Array.make ncap (Bitset.create ~capacity:1 ()) in
    Array.blit t.delta 0 delta 0 t.n_units;
    for i = t.n_units to ncap - 1 do
      pts.(i) <- Bitset.create ~capacity:16 ();
      delta.(i) <- Bitset.create ~capacity:16 ()
    done;
    t.pts <- pts;
    t.delta <- delta;
    let dyn = Array.make ncap [] in
    Array.blit t.dyn_copy 0 dyn 0 t.n_units;
    t.dyn_copy <- dyn;
    let uf = Array.init ncap (fun i -> i) in
    Array.blit t.uf 0 uf 0 t.n_units;
    t.uf <- uf;
    let members = Array.init ncap (fun i -> [ i ]) in
    Array.blit t.members 0 members 0 t.n_units;
    t.members <- members;
    let queued = Bytes.make ncap '\000' in
    Bytes.blit t.queued 0 queued 0 (Bytes.length t.queued);
    t.queued <- queued
  end

let push t u =
  if Bytes.get t.queued u = '\000' then begin
    Bytes.set t.queued u '\001';
    Queue.add u t.queue
  end

(* Re-arm a node whose edge set just grew (a call edge connected after its
   points-to set was already propagated): mark everything it holds as
   frontier again so the fresh edges see the full set, and requeue. *)
let reseed t u =
  let r = find t u in
  if not (Bitset.is_empty t.pts.(r)) then begin
    ignore (Bitset.union_into ~dst:t.delta.(r) t.pts.(r));
    push t r
  end

let cell t site fld =
  let key = (site * t.n_fields) + fld in
  match Hashtbl.find_opt t.cells key with
  | Some u -> u
  | None ->
    let u = t.n_units in
    grow_units t (u + 1);
    t.n_units <- u + 1;
    Hashtbl.add t.cells key u;
    Stats.bump t.stats "cells";
    u

let add_copy t src dst =
  if not (Hashtbl.mem t.copy_dedup (src, dst)) then begin
    Hashtbl.add t.copy_dedup (src, dst) ();
    let s = find t src and d = find t dst in
    t.dyn_copy.(s) <- dst :: t.dyn_copy.(s);
    Stats.bump t.stats "copy_edges";
    if s <> d && Bitset.diff_union_into ~dst:t.pts.(d) ~delta:t.delta.(d) t.pts.(s) then push t d
  end

let seed_obj t site dst_node =
  let obj = Pag.obj_node t.pag site in
  ignore (Bitset.add t.pts.(find t obj) site);
  let d = find t dst_node in
  if Bitset.add t.pts.(d) site then begin
    ignore (Bitset.add t.delta.(d) site);
    push t d
  end

(* Connect one call edge: wire PAG entry/exit edges, record the call-graph
   edge, activate the callee, and reseed every populated source endpoint so
   the new edges see the whole set, not just future deltas. *)
let rec connect t (cd : Builder.call_desc) target_mid =
  if not (Hashtbl.mem t.connected (cd.Builder.cd_site, target_mid)) then begin
    Hashtbl.add t.connected (cd.Builder.cd_site, target_mid) ();
    activate t target_mid;
    let target = t.prog.Ir.methods.(target_mid) in
    Builder.connect_call t.pag cd ~target;
    ignore (Callgraph.add_edge t.cg ~site:cd.Builder.cd_site ~caller:cd.Builder.cd_caller ~target:target_mid);
    (match Builder.receiver_node t.pag cd with Some r -> reseed t r | None -> ());
    (match cd.Builder.cd_kind with
    | Ir.Ctor { recv; _ } -> reseed t (Pag.local_node t.pag ~meth:cd.Builder.cd_caller ~var:recv)
    | Ir.Virtual _ | Ir.Static _ -> ());
    List.iter (fun a -> reseed t a) cd.Builder.cd_args;
    List.iter (fun r -> reseed t r) (Builder.return_nodes t.pag target)
  end

and activate t mid =
  if not t.reachable.(mid) then begin
    t.reachable.(mid) <- true;
    Stats.bump t.stats "reachable_methods";
    let descs = Builder.add_method_body t.pag mid in
    (* seed allocations and reseed accessed globals *)
    let m = t.prog.Ir.methods.(mid) in
    List.iter
      (fun instr ->
        match instr with
        | Ir.Alloc { dst; site; _ } -> seed_obj t site (Pag.local_node t.pag ~meth:mid ~var:dst)
        | Ir.Load_global { glb; _ } -> reseed t (Pag.global_node t.pag glb)
        | Ir.Move _ | Ir.Load _ | Ir.Store _ | Ir.Store_global _ | Ir.Call _ | Ir.Return _
        | Ir.Cast_move _ ->
          ())
      m.Ir.body;
    List.iter
      (fun (cd : Builder.call_desc) ->
        match cd.Builder.cd_kind with
        | Ir.Static { target } -> connect t cd target.Types.ms_id
        | Ir.Ctor { ctor; _ } -> connect t cd ctor.Types.ms_id
        | Ir.Virtual _ -> (
          match Builder.receiver_node t.pag cd with
          | Some recv ->
            (match Hashtbl.find_opt t.virtuals_at recv with
            | Some r -> r := cd :: !r
            | None -> Hashtbl.add t.virtuals_at recv (ref [ cd ]));
            reseed t recv
          | None -> assert false))
      descs
  end

let dispatch t recv_node site_id cd =
  ignore recv_node;
  let ctable = t.prog.Ir.ctable in
  let cls = (t.prog.Ir.allocs.(site_id)).Ir.alloc_cls in
  if cls <> Types.null_class ctable then begin
    match cd.Builder.cd_kind with
    | Ir.Virtual { mname; _ } -> (
      match Types.lookup_method ctable cls mname with
      | Some target -> connect t cd target.Types.ms_id
      | None -> () (* receiver class cannot answer: statically dead combination *))
    | Ir.Static _ | Ir.Ctor _ -> ()
  end

(* Difference propagation: drain the unit's delta and push only that along
   every outgoing copy edge; complex constraints (loads/stores/dispatch)
   likewise fire only for the frontier sites. A merged class propagates
   once through the union of its members' edges. *)
let process t u0 =
  let u = find t u0 in
  let d = t.delta.(u) in
  if not (Bitset.is_empty d) then begin
    t.delta.(u) <- Bitset.create ~capacity:16 ();
    Stats.bump t.stats "propagations";
    let propagate dst =
      let w = find t dst in
      if w <> u && Bitset.diff_union_into ~dst:t.pts.(w) ~delta:t.delta.(w) d then push t w
    in
    List.iter
      (fun m ->
        if m < Pag.node_count t.pag then begin
          (* static copy edges from the PAG *)
          List.iter propagate (Pag.assign_out t.pag m);
          List.iter propagate (Pag.global_out t.pag m);
          List.iter (fun (_, w) -> propagate w) (Pag.entry_out t.pag m);
          List.iter (fun (_, w) -> propagate w) (Pag.exit_out t.pag m);
          (* complex constraints: m as a load/store base or virtual receiver *)
          let loads = Pag.load_out t.pag m in
          let stores = Pag.store_in t.pag m in
          let virtuals =
            match Hashtbl.find_opt t.virtuals_at m with Some r -> !r | None -> []
          in
          if loads <> [] || stores <> [] || virtuals <> [] then
            Bitset.iter d (fun o ->
                List.iter (fun (f, dst) -> add_copy t (cell t o f) dst) loads;
                List.iter (fun (f, src) -> add_copy t src (cell t o f)) stores;
                List.iter (fun cd -> dispatch t m o cd) virtuals)
        end)
      t.members.(u);
    (* dynamic copy edges — fetched after the members loop so edges added
       by the complex constraints above are included *)
    List.iter propagate t.dyn_copy.(u)
  end

(* Online cycle collapse: SCCs of the current copy graph (static assign-like
   edges plus dynamic ones) become single units. Periodically invoked from
   the run loop; stale queue entries are harmless since [process] works on
   representatives and skips empty deltas. *)
let collapse t =
  let g = Digraph.create ~capacity:t.n_units () in
  Digraph.ensure_node g (t.n_units - 1);
  let n_nodes = Pag.node_count t.pag in
  for u = 0 to t.n_units - 1 do
    if find t u = u then begin
      let edge dst =
        let w = find t dst in
        if w <> u then Digraph.add_edge g u w
      in
      List.iter
        (fun m ->
          if m < n_nodes then begin
            List.iter edge (Pag.assign_out t.pag m);
            List.iter edge (Pag.global_out t.pag m);
            List.iter (fun (_, w) -> edge w) (Pag.entry_out t.pag m);
            List.iter (fun (_, w) -> edge w) (Pag.exit_out t.pag m)
          end)
        t.members.(u);
      List.iter edge t.dyn_copy.(u)
    end
  done;
  let comp, count = Digraph.scc g in
  let group = Array.make count [] in
  for u = 0 to t.n_units - 1 do
    if find t u = u then group.(comp.(u)) <- u :: group.(comp.(u))
  done;
  Array.iter
    (fun us ->
      match us with
      | [] | [ _ ] -> ()
      | r :: rest ->
        List.iter
          (fun u ->
            t.uf.(u) <- r;
            ignore (Bitset.union_into ~dst:t.pts.(r) t.pts.(u));
            ignore (Bitset.union_into ~dst:t.delta.(r) t.delta.(u));
            t.dyn_copy.(r) <- List.rev_append t.dyn_copy.(u) t.dyn_copy.(r);
            t.dyn_copy.(u) <- [];
            t.members.(r) <- List.rev_append t.members.(u) t.members.(r);
            t.members.(u) <- [];
            Stats.bump t.stats "collapsed_units")
          rest;
        (* everything the class holds must flow through the merged edge
           set at least once *)
        ignore (Bitset.union_into ~dst:t.delta.(r) t.pts.(r));
        push t r)
    group;
  Stats.bump t.stats "collapse_passes"

let collapse_interval = 2048

let run ?roots (prog : Ir.program) =
  let pag = Pag.create prog in
  let cg = Callgraph.create prog in
  let n_nodes = Pag.node_count pag in
  let t =
    {
      prog;
      pag;
      cg;
      n_fields = max 1 (Types.field_count prog.Ir.ctable);
      pts = Array.init (max n_nodes 1) (fun _ -> Bitset.create ~capacity:16 ());
      delta = Array.init (max n_nodes 1) (fun _ -> Bitset.create ~capacity:16 ());
      dyn_copy = Array.make (max n_nodes 1) [];
      uf = Array.init (max n_nodes 1) (fun i -> i);
      members = Array.init (max n_nodes 1) (fun i -> [ i ]);
      n_units = n_nodes;
      copy_dedup = Hashtbl.create 4096;
      cells = Hashtbl.create 1024;
      virtuals_at = Hashtbl.create 256;
      connected = Hashtbl.create 1024;
      reachable = Array.make (Array.length prog.Ir.methods) false;
      queue = Queue.create ();
      queued = Bytes.make (max n_nodes 1) '\000';
      stats = Stats.create ();
    }
  in
  let roots =
    match roots with
    | Some rs -> rs
    | None -> (
      match prog.Ir.entry with
      | Some e -> [ e ]
      | None -> List.init (Array.length prog.Ir.methods) (fun i -> i))
  in
  List.iter (fun r -> activate t r) roots;
  let processed = ref 0 in
  while not (Queue.is_empty t.queue) do
    let u = Queue.pop t.queue in
    Bytes.set t.queued u '\000';
    process t u;
    incr processed;
    if !processed mod collapse_interval = 0 then collapse t
  done;
  let sccs = Callgraph.mark_recursion t.cg t.pag in
  Stats.add t.stats "recursive_sccs" sccs;
  Stats.add t.stats "cg_edges" (Callgraph.edge_count t.cg);
  (* flatten the union-find so post-run lookups are one indirection *)
  for i = 0 to t.n_units - 1 do
    ignore (find t i)
  done;
  (* install the solution as the demand kernel's pruning oracle, then seal *)
  Pag.set_oracle t.pag (fun n -> t.pts.(find t n));
  Pag.freeze t.pag;
  t

let pag t = t.pag
let callgraph t = t.cg
let program t = t.prog

let points_to t node =
  if node < Array.length t.pts && node < t.n_units then t.pts.(find t node)
  else Bitset.create ~capacity:1 ()

let is_reachable t mid = mid >= 0 && mid < Array.length t.reachable && t.reachable.(mid)

let reachable_methods t =
  let acc = ref [] in
  Array.iteri (fun i r -> if r then acc := i :: !acc) t.reachable;
  List.rev !acc

let stats t = t.stats
