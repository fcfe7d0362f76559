(** Partial Points-To Analysis — Algorithm 3 of the paper, the heart of
    DYNSUM.

    A PPTA run starts from a query state [(v, f, s)] — node, field stack,
    RSM direction ([S1] = traversing a flowsTo-path backwards, [S2] =
    forwards) — and explores {e only the local edges} (new/assign/load/
    store) reachable from it, following the pointsTo and alias RSMs of
    Figure 3(a) field-sensitively. It returns:

    - the allocation sites proven to flow to the query (reached with an
      empty field stack), and
    - the {e frontier tuples} [(u, f', s')] at which a global edge
      (assignglobal/entry/exit) is about to be crossed.

    Because local edges never touch the calling context, the result is
    context-independent and can be cached and reused under any context —
    the paper's key observation. The [new n̄ew] flip from S1 to S2 at an
    allocation (line 10 of Algorithm 3) is sound because lowering gives
    every allocation site a unique destination variable. *)

type state = Kernel.state = S1 | S2

val state_to_int : state -> int
val pp_state : Format.formatter -> state -> unit

type summary = {
  objs : int list; (** allocation sites, deduplicated *)
  tuples : (int * Pts_util.Hstack.t * state) list; (** frontier states *)
}

val compute :
  Pag.t -> Conf.t -> Budget.t -> ?trace:(int -> Pts_util.Hstack.t -> state -> unit) ->
  Pag.node -> Pts_util.Hstack.t -> state -> summary
(** One PPTA run — {!Kernel.local_walk} under {!Kernel.exact_policy}.
    Consumes budget per visited state; @raise Budget.Out_of_budget (also
    on field-stack overflow), in which case the partial result must not be
    cached. [trace] observes each newly visited state (used by the Table 1
    walkthrough). *)

(** {2 The footprinted summary store}

    The cache DYNSUM fills on demand and STASUM fills offline: summaries
    keyed by {!Kernel.Key}, each with its derivation footprint — the PAG
    nodes its PPTA run visited. An entry stays valid across an edit burst
    iff no footprint node got dirty: the local walk only reads adjacency
    at nodes it visits, and an edit dirties both endpoints of every
    changed edge. *)

type store = {
  summaries : summary Kernel.Key_tbl.t;
  footprints : int list Kernel.Key_tbl.t;  (** key -> sorted visited nodes *)
}

val store : unit -> store

val key : Pag.node -> Pts_util.Hstack.t -> state -> Kernel.Key.t

val points : store -> int
(** Distinct (node, direction) pairs the store covers. *)

val add : store -> Kernel.Key.t -> summary -> int list -> unit
(** Insert or replace an entry and its footprint. *)

val derive :
  Pag.t -> Conf.t -> Budget.t -> Pag.node -> Pts_util.Hstack.t -> state -> summary * int list
(** {!compute} that also returns the run's footprint, sorted.
    @raise Budget.Out_of_budget *)

val derive_missing :
  store -> Kernel.env -> Kernel.Key.t -> Pag.node -> Pts_util.Hstack.t -> state -> summary
(** The common miss: a [Summary_miss] event, then {!derive} on the
    engine's budget, then {!add}. *)

val stale : (int -> bool) -> int list -> bool
(** [stale is_dirty fp]: does an entry with footprint [fp] die in a burst
    dirtying the nodes [is_dirty] admits? An empty footprint always does. *)

val invalidate : ?on_drop:(Kernel.Key.t -> unit) -> store -> Pag.t -> Pag.node list -> int * int
(** Drop every {!stale} entry (a key without a footprint counts as empty);
    [on_drop] sees each dropped key. Returns [(dropped, retained)]. *)

val solve :
  ?satisfy:(Query.Target_set.t -> bool) ->
  ?prune:Kernel.pruner ->
  ?fastpath:(unit -> unit) ->
  miss:(Kernel.Key.t -> Pag.node -> Pts_util.Hstack.t -> state -> summary) ->
  store -> Kernel.env -> Pag.node -> Query.Target_set.t
(** Algorithm 4 over the store: {!Kernel.solve} from [(v, ε, S1, ε)]
    on the engine's budget, expanding each popped state by its summary. A
    node without local edges bypasses the store (the paper's fast path,
    announced through [fastpath]); a hit emits [Summary_hit]; a miss is
    the engine's [miss]. [satisfy] exits early in the refutation
    direction only (see {!Dynsum.points_to}). [prune] acts on the
    worklist alone, so the store stays query-independent.
    @raise Budget.Out_of_budget *)
