module Hstack = Pts_util.Hstack

type mode = No_refine | Refine

type t = {
  env : Kernel.env;
  mode : mode;
  fb : Fieldbased.t; (* the field-based approximation match edges denote *)
}

let create ?conf ?trace mode pag =
  let name = match mode with No_refine -> "norefine" | Refine -> "refinepts" in
  { env = Kernel.env ~name ?conf ?trace pag; mode; fb = Fieldbased.create pag }

let env t = t.env
let stats t = t.env.Kernel.stats

(* A load edge [dst = base.f], the unit of refinement. *)
module Load_edge = struct
  type t = int * int * int (* dst node, field, base node *)

  let equal (a : t) (b : t) = a = b
  let hash = Hashtbl.hash
end

module Edge_tbl = Hashtbl.Make (Load_edge)
module Memo = Kernel.Key_tbl

(* One kernel run under a fixed policy. Within the pass, local walks are
   memoised by (node, field stack, direction) — the policy is fixed for
   the pass, so a walk's result is too. This replaces the old nested
   formulation's "ad hoc caching within a query" and is what
   {!Trace.Summary_hit} means for these engines. *)
let pass ?prune ~policy (env : Kernel.env) budget v =
  let memo = Memo.create 256 in
  let expand u f s =
    if not (Pag.has_local_edges env.pag u) then Kernel.frontier_only u f s
    else begin
      let key = (u, Hstack.id f, Kernel.state_to_int s) in
      match Memo.find_opt memo key with
      | Some r ->
        Trace.emit env.sink (Trace.Summary_hit { engine = env.name; node = u });
        r
      | None ->
        Trace.emit env.sink (Trace.Summary_miss { engine = env.name; node = u });
        let r = Kernel.local_walk ?prune ~policy env.pag env.conf budget u f s in
        Memo.add memo key r;
        r
    end
  in
  Kernel.solve ?prune env.pag budget expand v

let exact_pass ?prune env budget v = pass ?prune ~policy:Kernel.exact_policy env budget v

(* One refinement pass: the policy treats exactly the load edges in
   [flds_to_refine] field-sensitively and jumps the rest through
   field-based match edges, recording them in [flds_seen]. *)
let refine_pass t ?prune ~flds_to_refine ~flds_seen v =
  let policy =
    {
      Kernel.exact = false;
      refined = (fun ~dst ~fld ~base -> Edge_tbl.mem flds_to_refine (dst, fld, base));
      note_match =
        (fun ~dst ~fld ~base ->
          let edge = (dst, fld, base) in
          if not (Edge_tbl.mem flds_seen edge) then begin
            Edge_tbl.add flds_seen edge ();
            Trace.emit t.env.sink (Trace.Match_edge { engine = t.env.name; fld })
          end);
      match_pts = (fun f -> Fieldbased.pts_of_field t.fb f);
      match_flows = (fun f -> Fieldbased.flows_of_field t.fb f);
    }
  in
  pass ?prune ~policy t.env t.env.budget v

let points_to t ?satisfy v : Query.outcome =
  Kernel.run_query t.env v (fun prune ->
      let flds_to_refine = Edge_tbl.create 64 in
      let rec iterate pass =
        Trace.emit t.env.sink (Trace.Refine_pass { engine = t.env.name; node = v; pass });
        let flds_seen = Edge_tbl.create 64 in
        let pts =
          match t.mode with
          | No_refine -> exact_pass ?prune t.env t.env.budget v
          | Refine -> refine_pass t ?prune ~flds_to_refine ~flds_seen v
        in
        let satisfied = match satisfy with Some pred -> pred pts | None -> false in
        if satisfied || Edge_tbl.length flds_seen = 0 then pts
        else begin
          Edge_tbl.iter (fun edge () -> Edge_tbl.replace flds_to_refine edge ()) flds_seen;
          iterate (pass + 1)
        end
      in
      iterate 1)
