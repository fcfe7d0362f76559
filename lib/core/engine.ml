type overflow = Conf.overflow = Abort | Widen

type conf = Conf.t = {
  budget_limit : int;
  max_field_repeat : int;
  max_field_depth : int;
  overflow : overflow;
  prune : bool;
}

let default_conf = Conf.default
let conf = Conf.make

type points_to_fn = ?satisfy:(Query.Target_set.t -> bool) -> Pag.node -> Query.outcome

type engine = {
  name : string;
  points_to : points_to_fn;
  budget : Budget.t;
  stats : Pts_util.Stats.t;
  summary_count : unit -> int;
  invalidate : Pag.node list -> int * int;
  summaries : Dynsum.t option;
}

let make ?summaries ?(summary_count = fun () -> 0) ?(invalidate = fun _ -> (0, 0))
    (env : Kernel.env) points_to =
  {
    name = env.name;
    points_to;
    budget = env.budget;
    stats = env.stats;
    summary_count;
    invalidate;
    summaries;
  }

(* ----------------------------- registry ---------------------------- *)

type builder = ?conf:conf -> ?trace:Trace.sink -> Pag.t -> engine

type spec = { spec_name : string; spec_doc : string; build : builder }

let registry =
  [
    {
      spec_name = "norefine";
      spec_doc = "Sridharan-Bodik, fully field-sensitive from the start, no refinement";
      build =
        (fun ?conf ?trace pag ->
          let t = Sb.create ?conf ?trace Sb.No_refine pag in
          make (Sb.env t) (Sb.points_to t));
    };
    {
      spec_name = "refinepts";
      spec_doc = "Sridharan-Bodik with iterative match-edge refinement";
      build =
        (fun ?conf ?trace pag ->
          let t = Sb.create ?conf ?trace Sb.Refine pag in
          make (Sb.env t) (Sb.points_to t));
    };
    {
      spec_name = "dynsum";
      spec_doc = "on-demand dynamic summaries (Algorithm 4, the paper's contribution)";
      build =
        (fun ?conf ?trace pag ->
          let t = Dynsum.create ?conf ?trace pag in
          make ~summaries:t
            ~summary_count:(fun () -> Dynsum.summary_count t)
            ~invalidate:(Dynsum.invalidate t) (Dynsum.env t) (Dynsum.points_to t));
    };
    {
      spec_name = "stasum";
      spec_doc = "static whole-program summarisation baseline (eager offline phase)";
      build =
        (fun ?conf ?trace pag ->
          let t = Stasum.create ?conf ?trace pag in
          make
            ~summary_count:(fun () -> Stasum.summary_count t)
            ~invalidate:(Stasum.invalidate t) (Stasum.env t) (Stasum.points_to t));
    };
    {
      spec_name = "supa";
      spec_doc = "flow-sensitive strong updates via value-flow refinement (Sui-Xue SUPA)";
      build =
        (fun ?conf ?trace pag ->
          let t = Supa.create ?conf ?trace pag in
          make (Supa.env t) (Supa.points_to t));
    };
  ]

let names () = List.map (fun s -> s.spec_name) registry

let find name = List.find_opt (fun s -> s.spec_name = name) registry

let create ?conf ?trace name pag =
  match find name with
  | Some s -> s.build ?conf ?trace pag
  | None ->
    invalid_arg
      (Printf.sprintf "unknown engine %S (known: %s)" name (String.concat ", " (names ())))
