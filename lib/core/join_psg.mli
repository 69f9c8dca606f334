(** The new, structurally recursive algorithm for joining partition covers
    (Section 4.1, Theorem 1 / Corollary 1).

    It builds the partition-level skeleton graph (PSG), computes the compact
    cover [H̄] that uses cross-link *targets* as centers
    ([H̄out(s) = {t | t link target, s ⇝ t in the PSG}], [H̄in(t) = {t}],
    which is implicit), and then copies entries to partition-level ancestors
    of link sources and descendants of link targets (the supplementary cover
    [Ĥ]).  The union of the partition covers, [H̄] and [Ĥ] is a 2-hop cover
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
      grouped by union-find, so they can never cross), partial [H̄] covers
      are computed per PSG-partition from materialised closures, and
      connected by propagating [H̄out] along the cross edges to the
      link-source ancestors of their targets. *)

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
    [H̄]/[Ĥ] entries, built through a three-stage pipeline: per-task
    packed entry arrays ([join.psg.sort], fanned out over the pool; the
    out-side task of an element partition emits each of its entries once,
    through a stamp per link target, and no other partition's task can
    repeat them), one sorted stream per direction ([join.psg.merge]), and
    one merge of the partition covers' rows with both streams into a
    frozen cover ([join.psg.bulk] — {!Hopi_twohop.Cover.merge}).

    With [pool], the read-only bulk work — per-chunk closures
    ([Partitioned]) and the partition-level ancestor/descendant
    expansions of [Ĥ] — fans out over the pool's domains.  The sorted
    stream is the canonical entry set whatever the job count or task
    boundaries, so the resulting cover is identical (entry-for-entry and in
    stored order) for every [pool], including none. *)
