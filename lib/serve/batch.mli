(** Batched query evaluation over a {!Snapshot} on a domain pool.

    The line-oriented query language served by [hopi serve]:

    - [reach U V] — is element [V] reachable from [U]? answers
      [true]/[false];
    - [dist U V] — shortest stored distance; answers an integer or
      [unreachable];
    - [desc U] / [anc U] — size of the descendant / ancestor set
      (including the node itself); answers an integer;
    - [path EXPR] — a path expression, delegated to the [path_eval]
      callback (the CLI wires {!Hopi_query.Eval} over a corpus in; a
      snapshot alone stores no tags, so without the callback this answers
      an error).

    [eval_batch] evaluates a whole array concurrently on a
    {!Hopi_util.Pool} and returns answers in input order — slot [i] always
    answers query [i], independent of which domain ran it (deterministic
    result ordering, the same discipline as the parallel build).  A query
    that raises is answered as {!constructor:Failed}, never by killing the
    batch.

    Metrics: [hopi_serve_queries_total], [hopi_serve_batches_total],
    [hopi_serve_query_duration_ns], [hopi_serve_batch_duration_ns] and the
    [hopi_serve_throughput_qps] gauge (queries per second of the last
    batch).  Every query additionally runs under a
    {!Hopi_obs.Reqtrace} request: per-kind latency histograms
    ([hopi_serve_query_kind_<kind>_duration_ns]), the [serve_query] SLO
    gauges, and — when a slow-query threshold is configured — a
    ring-buffered slow-query log attributing label-cache hits/misses,
    label probes and pager reads to the individual request. *)

type query =
  | Reach of int * int
  | Dist of int * int
  | Desc of int
  | Anc of int
  | Path of string

type answer =
  | Bool of bool
  | Distance of int option
  | Count of int
  | Rendered of string  (** a [path] result rendered by the evaluator *)
  | Failed of string

val parse : string -> (query, string) result
(** Parse one input line.  Leading/trailing blanks are ignored; the caller
    filters empty and [#]-comment lines. *)

val render : answer -> string
(** One output line per answer: [true]/[false], an integer, [unreachable],
    or [error: ...]. *)

val pp_query : Format.formatter -> query -> unit

type path_eval = string -> (string, string) result
(** Evaluate a path expression and render its result as one line; [Error]
    becomes {!constructor:Failed}.  Must be safe to call from any domain of
    the pool. *)

type ctx = { conn : int; queue_wait_ns : int }
(** Request context threaded into {!Hopi_obs.Reqtrace} samples by the
    socket server: the connection the batch arrived on and how long it
    waited in the admission queue.  Locally evaluated queries use no
    context (both report 0). *)

type engine = {
  connected : int -> int -> bool;
  min_distance : int -> int -> int option;
  descendants : ?f:(int -> unit) -> int -> int;
  ancestors : ?f:(int -> unit) -> int -> int;
  path_eval : path_eval option;
}
(** What evaluation needs from an index: the four query callbacks (with
    {!Snapshot}'s semantics — reflexive reachability for known nodes,
    [desc]/[anc] including the node itself, unknown ids unreachable and
    empty) plus the optional path evaluator.  [descendants ?f u] answers
    the size of [u]'s descendant set and calls [f] (default: nothing) once
    on each of its nodes; [ancestors] likewise.  All callbacks must be
    safe from any pool domain.  {!Router.engine} routes these over K
    shards, building the one cross-shard union set;
    {!engine_of_snapshot} binds them to one store, where
    {!Snapshot.iter_desc}/{!Snapshot.iter_anc} stream the nodes and
    nothing is built. *)

val engine_of_snapshot : ?path_eval:path_eval -> Snapshot.t -> engine

val eval_engine : ?ctx:ctx -> engine -> query -> answer

val eval_batch :
  ?path_eval:path_eval -> pool:Hopi_util.Pool.t -> Snapshot.t -> query array -> answer array
(** Evaluate a batch on the pool; answers land at their query's index. *)

val eval_batch_engine :
  ?ctx:ctx -> pool:Hopi_util.Pool.t -> engine -> query array -> answer array
(** {!eval_batch} over an arbitrary {!engine}, tagging every sample with
    the request context. *)

val eval_frame : ?ctx:ctx -> engine -> query array -> answer array
(** {!eval_batch_engine} without a pool: the batch is evaluated in order
    on the calling domain, with the same metrics.  The socket server
    serves each frame this way on one of its workers (frames, not the
    queries inside one, are its unit of parallelism). *)
