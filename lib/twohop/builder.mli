(** Approximate 2-hop-cover construction (Cohen et al.'s greedy algorithm
    with the paper's lazy priority queue, Section 3.2, plus the link-target
    center preselection of Section 4.2).

    The input is the reflexive-transitive closure of (a partition of) the
    element graph; the output cover answers exactly the connections of that
    closure.

    One lazy greedy loop, {!greedy}, runs every greedy cover build: {!build}
    here and {!Dist_builder.build}.  A builder supplies only the initial
    priorities, how a center graph is filled and how a chosen center is
    applied. *)

type stats = {
  iterations : int;  (** centers applied (including preselected ones) *)
  recomputations : int;  (** densest-subgraph evaluations *)
  reinserts : int;  (** stale queue entries pushed back *)
}

val build :
  ?preselect_centers:int list ->
  ?only_pairs:(int * int) list ->
  Hopi_graph.Closure.t ->
  Cover.t * stats
(** [preselect_centers] are used as centers first (in the given order),
    covering every connection they lie on, before the greedy loop runs —
    the paper preselects targets of cross-partition links.

    [only_pairs] restricts the set of connections the cover must answer
    [true] for (it remains sound for all queries: labels never assert
    non-connections); pairs not in the closure are ignored.  FliX uses it
    for the source ⇝ target pairs of its link skeleton; the initial
    priorities are then exact densities. *)

val build_eager : Hopi_graph.Closure.t -> Cover.t * stats
(** Ablation baseline for the lazy priority queue (Section 3.2): recompute
    the densest subgraph of {e every} candidate center in every round and
    pick the true maximum, the lowest local number among equals.  Far more
    densest-subgraph computations than {!build} — only usable on small
    inputs.  The covers differ where densities tie: {!build} applies a
    popped center whose density equals the next best priority, which may
    be a higher number than the eager pick. *)

(** {2 The greedy loop} *)

type ctx = {
  clo : Hopi_graph.Closure.t;
  cover : Cover.t;  (** every closure node registered *)
  uncov : Uncovered.t;
  graph : Densest.t;  (** the center-graph workspace *)
}

val context : Hopi_graph.Closure.t -> Uncovered.t -> ctx
(** A build's state over the closure's local numbers, [uncov] the
    connections still to cover. *)

val greedy :
  ctx ->
  prio:(int -> float) ->
  fill:(int -> unit) ->
  apply:(int -> Densest.result -> unit) ->
  Cover.t * stats
(** The lazy greedy loop.  Every local number [w] with [prio w > 0] is
    queued at that priority, ties to the lowest number.  Until [ctx.uncov]
    is empty: pop the best [w], let [fill w] add its center graph to the
    (started) workspace and peel it; apply the densest subgraph with
    [apply w] when its density is at least the next best priority, and
    re-push [w] at that density either way (a [w] with an empty center
    graph is dropped).  [apply] must cover exactly the subgraph's edges.
    Records the [hopi_twohop_*] counters, compacts the cover and returns
    it. *)
