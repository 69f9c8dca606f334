(** Construction of distance-aware 2-hop covers (Section 5.2).

    Two changes versus the plain builder: a center [w] may only cover a
    connection [(u,v)] when it lies on a shortest path
    ([d(u,w) + d(w,v) = d(u,v)]), and — because initial center graphs are no
    longer complete — the initial maximal density of a center graph with [E]
    edges is estimated as [√E / 2], with [E] obtained exactly for small
    candidate sets and otherwise by sampling at most [13,600] candidate
    pairs and taking the upper bound of the 98% confidence interval.
    Everything else is the plain builder's: {!Builder.greedy} runs the
    lazy loop and records the same [hopi_twohop_*] counters; this module
    supplies the estimates, the shortest-path test on each center-graph
    edge and a choice's removal with its distances.

    The result is a {!Cover.t} whose entries carry their distances in the
    DIST column, so {!Cover.dist} answers shortest distances. *)

type stats = {
  iterations : int;
  recomputations : int;
  reinserts : int;
  sampled_nodes : int;  (** center candidates whose E was sampled, not exact *)
}

val max_samples : int
(** = 13,600, as in the paper. *)

val build :
  ?seed:int ->
  ?exact_threshold:int ->
  Hopi_graph.Digraph.t ->
  Cover.t * stats
(** [exact_threshold] (default [max_samples]): candidate-pair counts up to
    this bound are counted exactly instead of sampled.  Pass [0] to force
    sampling everywhere, or [max_int] to force exact counting (the ablation
    of Section 5.2). *)
