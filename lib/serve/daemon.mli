(** The long-running analysis daemon behind [ptsto serve].

    A daemon loads and freezes one PAG, then answers {!Proto} requests
    for the rest of its life. The perf heart is a single cross-request
    {!Dynsum.base} tier: summaries distilled by one request seed every
    later one, so a warm daemon answers the same workload materially
    faster than a cold one (the [bench serve] target measures the
    ratio). The tier is size-bounded with second-chance eviction and is
    epoch-keyed: an [edit] request routes through {!Incr.apply}, which
    drops exactly the footprint-dirty entries and keeps the rest.

    Single-threaded by construction — one request executes at a time,
    and parallelism lives inside the engine ([c_jobs] worker domains per
    request), so responses are deterministic and byte-identical to the
    one-shot CLI: a [query] request answers through {!Pts_clients.Client.answer},
    the function behind [ptsto client --verdicts-json], and a [check]
    request through {!Pts_clients.Check.run}, as [ptsto check] does. *)

type config = {
  c_jobs : int;  (** {!Parsolve} worker domains per request *)
  c_budget : int;  (** default per-query step budget *)
  c_max_budget : int;  (** per-request budget ceiling; 0 = no ceiling *)
  c_base_capacity : int;  (** cross-request tier entries; 0 = unbounded *)
  c_max_cost : int;
      (** predicted-cost ceiling {!serve_channel} applies before a request
          runs; 0 = off *)
}

val default_config : config
(** jobs 1, budget {!Conf.default}, no ceilings. *)

val clients : (string * (string * (Pts_clients.Pipeline.t -> Pts_clients.Client.query list))) list
(** Query-set clients a [query] request can name, keyed by the same
    lowercase names [ptsto client -c] accepts. *)

type t

val create :
  ?config:config ->
  ?trace:Trace.sink ->
  checkers:Pts_clients.Check.checker list ->
  Pts_clients.Pipeline.t ->
  t
(** Freeze a pipeline into a daemon. [checkers] is the pool a [check]
    request draws from (empty request list = all of them). The daemon's
    base tier is registered with an {!Incr} instance so edit bursts
    invalidate it alongside the engine caches. *)

val base : t -> Dynsum.base
(** The cross-request summary tier (for tests and metrics). *)

val shutting_down : t -> bool

val handle : t -> Proto.request -> Trace.Json.t
(** Execute one request and return its response envelope. An answered
    request is counted under its op in [stats]' [requests], and its
    latency is recorded (a {!Trace.Request_latency} event and the
    percentile pool [stats] reports); a refused one is only counted
    under [admission.rejected_<code>]. *)

val serve_channel : t -> in_channel -> out_channel -> unit
(** Newline-delimited JSON loop: read one line, decode it, answer one
    line, in input order; a decode error echoes the request's [id]. A request whose predicted cost exceeds
    [c_max_cost] gets ["oversized"] without running. Returns on EOF or
    after answering a [shutdown] request. *)

val serve_socket : t -> string -> unit
(** Same loop over a Unix-domain socket at the given path (unlinked and
    re-bound on start, removed on exit). One connection at a time. *)
