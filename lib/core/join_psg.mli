(** The new, structurally recursive algorithm for joining partition covers
    (Section 4.1, Theorem 1 / Corollary 1).

    It builds the partition-level skeleton graph (PSG), computes the compact
    cover [H̄] that uses cross-link *targets* as centers
    ([H̄out(s) = {t | t link target, s ⇝ t in the PSG}], [H̄in(t) = {t}],
    which is implicit), and then gives [H̄out(s)] to every partition-level
    ancestor of a link source [s] and every link target [t] to the
    [Lin] of each partition-level descendant of [t] (the supplementary
    cover [Ĥ]).  The union of the partition covers, [H̄] and [Ĥ] is a 2-hop cover
    for the whole element graph.

    Two strategies compute [H̄]:

    - [One_closure] (default): one closure of the whole PSG (Tarjan plus
      a reachability bitset per strongly connected component,
      {!Hopi_graph.Closure.succs_among}), from which every link source's
      [H̄out] is read — the paper's "adapted transitive closure
      algorithm".  It holds one bitset per PSG component in memory at
      once.
    - [Partitioned]: the paper's recursion for PSGs whose transitive closure
      exceeds memory — the PSG is split so that every cross-partition PSG
      edge starts at a link target and ends at a link source (link edges are
      grouped by union-find, so they can never cross), each PSG-partition's
      partial [H̄] is read off one {!Hopi_graph.Closure.succs_among} pass
      over its subgraph, and the partial covers are connected by
      propagating [H̄out] along the cross edges to the link-source
      ancestors of their targets, over one bit row per link source, until
      a fixpoint.

    Both answer in [succs_among]'s form, the link targets each link source
    reaches over at least one PSG edge; the join then drops a source from
    its own [H̄out].  The PSG itself is read off the partition covers'
    labels ({!Hopi_collection.Psg.build}), the way the router builds it
    from the shards'. *)

type strategy =
  | One_closure
  | Partitioned of int  (** closure-connection budget per PSG partition *)

type stats = {
  psg_nodes : int;
  psg_edges : int;
  psg_partitions : int;  (** 1 for [One_closure] *)
  entries_added : int;
  cpu_seconds : float;
      (** CPU time summed across domains (equals wall time when no pool is
          given); [cpu_seconds /. join wall time] is the join speedup. *)
}

val join :
  ?strategy:strategy ->
  ?pool:Hopi_util.Pool.t ->
  Hopi_collection.Collection.t ->
  Hopi_collection.Partitioning.t ->
  partition_covers:Hopi_twohop.Cover.t array ->
  Hopi_twohop.Cover.t * stats
(** [partition_covers.(p)] must be the 2-hop cover of partition [p].  The
    result is the final cover: the union of the partition covers and the
    [H̄]/[Ĥ] entries, built in three stages.  [join.psg.sort]: the row
    stage ({!Hopi_collection.Psg.routes}, the router's) folds [H̄] into
    per-center rows over the partition covers' labels, and pool tasks
    flatten, over contiguous ranges of the ascending node ids, the rows
    of each node's [Lout(a) ∪ {a}] into [Ĥout(a)] and of [Lin(v) ∪ {v}]
    into [Ĥin(v)].  [join.psg.merge]: the tasks' packed entry arrays,
    each in (node, center) order, concatenated into one sorted stream per
    direction.  [join.psg.bulk]: one merge of the partition covers' rows
    with both streams into a frozen cover ({!Hopi_twohop.Cover.merge}).

    With [pool], the per-chunk kernel passes ([Partitioned]) and the
    flatten tasks fan out over the pool's domains.  A node's entries do
    not depend on which task or domain computes them, so the cover is
    identical (entry-for-entry and in stored order) for every [pool],
    including none. *)
