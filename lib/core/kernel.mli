(** The shared CFL-traversal kernel all four demand engines run on.

    The paper's analyses — NOREFINE, REFINEPTS, DYNSUM, STASUM — are all
    instances of one RRP/CFL-reachability machine; they differ only in how
    they treat {e local} edges (exact field stacks vs field-based match
    edges vs cached summaries). The kernel owns everything they share:

    - the RRP call/return context machine of Figure 3(b) ({!push_ctx},
      {!pop_ctx}), including the §5.1 recursion-collapsing rule and the
      partially-balanced empty-stack pop;
    - the field-sensitive {e local-edge walker} (Algorithm 3's traversal
      skeleton), parameterised by a {!type:policy} deciding per load edge
      whether to track fields exactly or jump through the field-based
      match approximation;
    - the {e global-edge worklist} of Algorithm 4 ({!solve}),
      parameterised by an {!type:expander} — the engine's local-edge
      strategy (a fresh walk, a summary cache, a static table…);
    - budget charging and the visited/seen dedup sets for both;
    - the per-query lifecycle around them ({!run_query}): trace events,
      budget reset, the Andersen pruner and its counters, and the
      out-of-budget outcome.

    Engines supply only a body that computes a target set: their
    local-edge strategy. *)

type state = S1 | S2
(** RSM direction: [S1] traverses a flowsTo-path backwards, [S2] forwards
    (the alias detour). Re-exported as {!Ppta.state}. *)

val state_to_int : state -> int
val pp_state : Format.formatter -> state -> unit

(** The identity of a local query state — (node, field-stack id,
    [state_to_int]) — and the key of every summary/memo table. *)
module Key : sig
  type t = int * int * int

  val equal : t -> t -> bool
  val hash : t -> int
end

module Key_tbl : Hashtbl.S with type key = Key.t

(** {2 Andersen-guided pruning}

    A per-query view of the PAG's oracle (the whole-program Andersen
    solution installed by {!Solver.run} via {!Pag.set_oracle}). Two cuts,
    both checked {e before} budget is charged so pruning reduces step
    counts:

    - {e empty row}: no allocation flows to the node under the
      over-approximation, so no flowsTo(-bar) path through it can harvest
      anything — valid in both [S1] and [S2];
    - {e root disjointness}: at an [S1] state with an {e empty} field
      stack, any object harvested downstream flows to the current node
      {e and} (being an answer) to the query root; disjoint oracle rows
      refute that conjunction.

    On a PAG built by Andersen itself these per-state cuts almost never
    fire for exact traversals — every reachable state sits on real,
    saturated edges, so the oracle cannot refute it (the demand side is
    more precise only in the context/field-stack dimensions, invisible
    to a flow-insensitive oracle). The cuts with measured bite act on
    the one construct {e coarser} than Andersen, the field-based match
    edges of an unconverged REFINEPTS pass:

    - {e match-site filter} ([S1], unrefined load): of [match_pts g] —
      every site ever stored to [g] anywhere — keep only sites the
      oracle admits at the load destination;
    - {e match-flow filter} ([S2], unrefined store): drop [match_flows
      g] jump targets whose rows are disjoint from the traced value's.

    Both only alter unconverged refinement passes: the pass a query
    returns crosses no unrefined match edge, so final answers are
    unchanged.

    The per-state cuts are suppressed for widened field stacks: there the
    traversal itself over-approximates, and pruning could shrink the
    (equally widened) answer the unpruned engine gives, breaking
    prune-on/off equality.

    Pruning is per-query state and must never run inside summary
    computation ({!Ppta.compute} takes no pruner): DYNSUM/STASUM
    summaries are query-independent and shared, so a query-specific cut
    would poison the cache for later queries. Engines thread the pruner
    only through {!solve} and their own per-query local walks. *)

type pruner

val pruner : Pag.t -> root:Pag.node -> pruner option
(** [None] when the PAG has no oracle — pruning silently disabled. *)

(** {2 Context stacks (call-site ids)} *)

val push_ctx : Pag.t -> Pts_util.Hstack.t -> int -> Pts_util.Hstack.t
(** Enter a method through call site [i] (no-op for recursive sites). *)

val pop_ctx : Pag.t -> Pts_util.Hstack.t -> int -> Pts_util.Hstack.t option
(** Leave a method through call site [i]: [None] when the path is
    unrealizable (stack top differs from [i]); [Some] of the popped stack
    when the top matches, the stack is empty, or the site is recursive. *)

(** {2 The local-edge walker} *)

type policy = {
  exact : bool;
      (** [true] short-circuits all match-edge machinery: every field is
          tracked exactly (Algorithm 3 / NOREFINE / the PPTA) *)
  refined : dst:Pag.node -> fld:int -> base:Pag.node -> bool;
      (** is load edge [dst = base.fld] refined (tracked exactly)? *)
  note_match : dst:Pag.node -> fld:int -> base:Pag.node -> unit;
      (** an unrefined load edge was crossed via its match edge — record
          it for the next refinement pass *)
  match_pts : int -> int list;
      (** field-based points-to of a field: sites storable into any
          [_.fld] (see {!Fieldbased.pts_of_field}) *)
  match_flows : int -> Pag.node list;
      (** field-based flows of a field: nodes a value stored into any
          [_.fld] may surface at (see {!Fieldbased.flows_of_field}) *)
}

val exact_policy : policy

type local_result = {
  lr_objs : int list;  (** sites reached with an empty stack — harvest under the current context *)
  lr_match_objs : int list;
      (** sites contributed by match edges — context-free harvest *)
  lr_frontier : (Pag.node * Pts_util.Hstack.t * state) list;
      (** states at which a global edge is about to be crossed; {!solve}
          expands them under the RRP context machine *)
  lr_jumps : (Pag.node * Pts_util.Hstack.t * state) list;
      (** match-edge continuations; {!solve} propagates them with the
          calling context cleared *)
}

val frontier_only : Pag.node -> Pts_util.Hstack.t -> state -> local_result
(** The fast path for a node without local edges: its only continuation is
    itself as a frontier state. *)

val local_walk :
  ?observe:(Pag.node -> Pts_util.Hstack.t -> state -> unit) ->
  ?prune:pruner ->
  policy:policy ->
  Pag.t -> Conf.t -> Budget.t -> Pag.node -> Pts_util.Hstack.t -> state -> local_result
(** One local-edge-only traversal from a query state. With {!exact_policy}
    this is exactly Algorithm 3 (see {!Ppta.compute}, which wraps it).
    Consumes budget per newly visited state; [observe] sees each one.
    [prune] cuts provably-fruitless states before they are charged —
    never pass it from summary computation (see the pruning section).
    @raise Budget.Out_of_budget (also on field-stack overflow under
    [Abort]), in which case the partial result must not be cached. *)

(** {2 The global-edge worklist (Algorithm 4)} *)

type expander = Pag.node -> Pts_util.Hstack.t -> state -> local_result
(** The engine's local-edge strategy: given a popped worklist state,
    produce its local consequences (however it likes — walking, a summary
    cache, a precomputed table). *)

val solve :
  ?stop:(Query.Target_set.t -> bool) ->
  ?prune:pruner ->
  Pag.t -> Budget.t -> expander -> Pag.node -> Query.Target_set.t
(** Run the worklist from [(v, ε, S1, ε)] — the empty calling context —
    to exhaustion. [prune] drops
    provably-fruitless states at enqueue time (inter-procedural expansion
    only — the engine decides separately whether its expander prunes its
    local walks, and summary-backed expanders must not). [stop] is
    checked whenever the accumulated target set grows (and once on the
    empty set); when it returns [true] the loop returns the partial set
    immediately. {b Soundness caveat}: the accumulated set grows towards
    the answer from below, so early exit is only meaningful for
    anti-monotone client predicates in the {e refutation} direction —
    see {!Dynsum.points_to}. @raise Budget.Out_of_budget *)

(** {2 The query driver} *)

type env = {
  name : string;  (** registry name, carried by every trace event *)
  pag : Pag.t;
  conf : Conf.t;
  budget : Budget.t;  (** the per-query allowance {!run_query} resets *)
  stats : Pts_util.Stats.t;
  sink : Trace.sink;  (** counts into [stats], then forwards to the caller's trace *)
}
(** What every engine holds regardless of its local-edge strategy. *)

val env :
  name:string -> ?conf:Conf.t -> ?trace:Trace.sink -> Pag.t -> env
(** A fresh budget and counter table for one engine instance. *)

val run_query : env -> Pag.node -> (pruner option -> Query.Target_set.t) -> Query.outcome
(** [run_query env v body] answers one demand query for root [v]; [body]
    is the engine's solve, given the query's pruner ([None] unless
    [conf.prune] and the PAG has an oracle). The event order is a
    contract every engine shares:

    + [Query_start], then the budget is reset for the query;
    + with [conf.prune] and an empty oracle row at [v], the
      ["oracle_empty_root"] counter and an empty [Resolved] answer,
      without running [body];
    + otherwise [body]; when it raises {!Budget.Out_of_budget}, a
      [Budget_exceeded] event and [Exceeded];
    + the pruner's ["prune_checks"] and ["pruned_states"] counters, each
      only when non-zero;
    + [Query_end], whose [steps] is {!Budget.steps_this_query}.

    So every query emits exactly one [Query_start] and one [Query_end],
    and only the pruner counters can sit between an unresolved end and
    its [Budget_exceeded]. *)
