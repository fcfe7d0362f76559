(** Whole-program Andersen-style (inclusion-based) points-to analysis —
    the reproduction's substitute for Spark (Lhoták & Hendren, CC'03).

    Field-sensitive on (object, field) cells, context-insensitive,
    flow-insensitive. It plays two roles, both taken from the paper's
    setup (§5.1):

    - it constructs the PAG and the call graph {e on the fly}: a method's
      edges enter the graph only once the method is discovered reachable,
      and virtual call sites are resolved against the receiver's growing
      points-to set ("determined using a call graph constructed on the fly
      with Andersen-style analysis", Table 3);
    - its solution is a sound over-approximation of every context-sensitive
      demand answer, which the test-suite uses as an oracle.

    The fixpoint runs with {e difference propagation} — each unit keeps a
    delta bitset of not-yet-propagated sites and only the delta flows
    along copy edges — and {e online cycle collapse}: copy-edge SCCs
    detected periodically during solving are merged into single units via
    union-find, so a cycle's set is propagated once instead of once per
    member.

    [run] returns a frozen PAG with recursion-collapsed call sites and
    the solution installed as the PAG's pruning oracle
    (see {!Pag.set_oracle}), ready for the demand-driven analyses. *)

type t

val run : ?roots:int list -> Ir.program -> t
(** Solve to fixpoint. [roots] defaults to the program's synthetic entry
    method (or every method when the program has none). *)

val pag : t -> Pag.t
val callgraph : t -> Callgraph.t
val program : t -> Ir.program

val points_to : t -> Pag.node -> Pts_util.Bitset.t
(** Allocation-site ids that may flow to the node. The returned set is the
    solver's own — do not mutate. *)

val is_reachable : t -> int -> bool
(** Is the method id reachable from the roots? *)

val reachable_methods : t -> int list

val stats : t -> Pts_util.Stats.t
(** Counters: ["propagations"], ["copy_edges"], ["cells"],
    ["reachable_methods"], ["cg_edges"], ["recursive_sccs"],
    ["collapsed_units"], ["collapse_passes"]. *)
