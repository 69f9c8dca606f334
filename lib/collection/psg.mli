(** The partition-level skeleton graph (Definition 1 of the paper).

    Given a partitioning [P] with cross-partition links [L_P], the PSG has as
    nodes the sources and targets of cross-partition links, and as edges the
    links [L_P] plus an edge [(t, s)] whenever a link target [t] and a link
    source [s] lie in the same partition and [t ⇝ s] *within* that partition
    — connectivity that the per-partition 2-hop covers already answer, so it
    is read off their labels. *)

type t = {
  graph : Hopi_graph.Digraph.t;
  sources : int array;
      (** sources of cross-partition links, ascending: a source's index is
          its dense number *)
  targets : int array;  (** targets of cross-partition links, ascending *)
  link_edges : (int * int) list;
      (** the [L_P] edges (source → target); all other PSG edges are
          within-partition connections (target → source) *)
}

val build :
  links:(int * int) list ->
  lin:(int -> (int -> unit) -> unit) ->
  lout:(int -> (int -> unit) -> unit) ->
  t
(** The PSG of the cross-partition [links].  [lin s f] and [lout t f]
    call [f] on each center of the node's [Lin] or [Lout] label in the
    2-hop cover of its own partition.  The within edge [t → s] exists
    exactly when [t <> s] and some center of [Lout(t) ∪ {t}] is in
    [Lin(s) ∪ {s}]: the cover's own reachability test.  A partition
    cover's centers never leave its partition, so a common center also
    says that [t] and [s] share one.  One pass: each source goes into a
    bucket per center of [Lin(s) ∪ {s}], then each target's
    [Lout(t) ∪ {t}] is scanned once against the buckets. *)
