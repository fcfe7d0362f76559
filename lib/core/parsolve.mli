(** Multicore batch-query evaluation over a frozen, CSR-packed PAG.

    A batch of points-to queries is distributed across [jobs] worker
    domains. Every domain builds its {e own} engine instance from the
    {!Engine} registry against the one shared (frozen, hence immutable)
    {!Pag.t} — engines are single-domain state; the graph, the task
    deques and the summary base tier are the only things the domains
    share.

    {b Scheduling.} One {!Wsdeque} per domain, seeded longest-first by
    the {!Costmodel} prediction (oracle row size of the query root), so
    predicted stragglers start immediately; a domain that runs dry steals
    the cheapest remaining task from the fullest peer. Wall-clock tracks
    total work instead of the worst shard. Each query is answered
    {e exactly once} by {e some} single-domain engine, so the verdicts
    are those of a sequential run — scheduling moves work, never changes
    it (pinned by the jobs 1/2/4 set-equality tests).

    This is the one batch executor: [ptsto client] at every [--jobs],
    [ptsto check] and the serve daemon all answer through it. At
    [jobs = 1] the single worker runs inline on the calling domain.

    {b Summary reuse.} Within a worker, DYNSUM summaries are reused
    through the engine's own cache; across workers and across calls,
    through the caller's [?base] tier ({!Dynsum.base}): every DYNSUM
    worker reads it by reference on a cache miss, and after the join the
    workers' structural {!Dynsum.snapshot}s are published into it. A
    PPTA summary is context-independent, so a summary computed under one
    domain's query mix is valid under any other's (see DESIGN.md,
    "Work-stealing, the cost model, and the summary base tier").

    {b Cross-domain work only when read.} Worker snapshots are taken only
    to publish into [?base] or to count unique keys across more than one
    worker; the merged {!field-summaries} pool is built only when forced;
    outcomes are rebased only for spawned domains. A single-worker run
    without [?base] therefore publishes nothing: it costs what a plain
    engine loop costs.

    Hash-consed stacks never cross domains raw: snapshots carry symbol
    lists, and worker outcomes are {!Pts_util.Hstack.rebase}d into the
    main domain's store before they land in {!type:result}. *)

type query = { node : Pag.node; satisfy : (Query.Target_set.t -> bool) option }

val query : ?satisfy:(Query.Target_set.t -> bool) -> Pag.node -> query

type domain_report = {
  dr_domain : int;
  dr_queries : int;  (** queries this domain answered *)
  dr_steps : int;  (** its engine's cumulative edge traversals *)
  dr_seconds : float;  (** wall-clock inside the worker, excluding spawn/join *)
  dr_summaries : int;
      (** summaries this domain {e computed itself} (base-tier hits
          excluded); for non-DYNSUM engines, its engine's table size *)
  dr_steals : int;  (** tasks this domain lifted from peers *)
}

type result = {
  outcomes : Query.outcome array;
      (** one per input query, same order; context stacks are interned in
          the calling domain's store and safe to compare against
          sequential results *)
  reports : domain_report list;  (** one per domain, in order *)
  stats : Pts_util.Stats.t;
      (** all workers' counters, merged; plus ["steals"] when any occurred *)
  wall_seconds : float;  (** whole batch, including spawn/join/merge *)
  jobs : int;
  steals : int;  (** total successful steals *)
  predicted_steps : int array;  (** {!Costmodel.predict} per query, input order *)
  actual_steps : int array;  (** kernel steps each query actually charged *)
  cost_corr : float;
      (** Pearson correlation of predicted vs actual ([nan] when
          undefined) — the cost model's audit trail *)
  merged_summaries : int;
      (** total DYNSUM summaries {e derived} across all domains (0 for
          other engines); minus {!field-unique_summaries}
          this is the cross-domain recomputation the base tier exists to
          kill *)
  unique_summaries : int;
      (** distinct summary keys in the final pool; at one worker, equal to
          {!field-merged_summaries} without building the pool *)
  summaries : Dynsum.snapshot Lazy.t;
      (** the final merged pool, built when forced — add it to a
          {!Dynsum.base} tier, or persist it with {!Dynsum.save_snapshot} *)
  base_hits : int;
      (** [?base] lookup hits, as {e lifetime} tallies of the tier (the
          delta across the call is the caller's to take); all four
          [base_*] fields are 0 without [?base] or for non-DYNSUM engines *)
  base_misses : int;
  base_evictions : int;
  base_size : int;  (** resident entries when the run finished *)
}

val run :
  ?conf:Conf.t ->
  ?trace_writer:Trace.writer ->
  ?jobs:int ->
  ?base:Dynsum.base ->
  engine:string ->
  Pag.t ->
  query array ->
  result
(** [run ~engine pag queries] answers the batch and returns outcomes
    positionally. [jobs] defaults to 1 (inline, no spawn — the sequential
    path). When [trace_writer] is given, every worker traces through its
    own {!Trace.buffered_jsonl} sink onto the shared writer — whole lines
    only — including per-steal {!Trace.Steal} and queue-depth events.

    [base] supplies an external (possibly size-bounded) summary tier to
    read through and publish into; ignored for non-DYNSUM engines. The
    caller owns its freshness: the tier must describe the PAG as currently edited
    ({!Dynsum.base_invalidate} after every {!Pag.apply_edits}) and must
    not be touched while the run is in flight. The serve daemon uses
    this to make summary reuse cross-request.

    @raise Invalid_argument on [jobs < 1], an unknown engine name, or an
    unfrozen PAG. *)

val reports_json : result -> Trace.Json.t
(** The per-domain {!field-reports} as a JSON list — the ["domains"]
    field of [ptsto client --metrics-json] and of the
    parallel bench rows. *)
