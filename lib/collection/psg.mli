(** The partition-level skeleton graph (Definition 1 of the paper).

    Given a partitioning [P] with cross-partition links [L_P], the PSG has as
    nodes the sources and targets of cross-partition links, and as edges the
    links [L_P] plus an edge [(t, s)] whenever a link target [t] and a link
    source [s] lie in the same partition and [t ⇝ s] *within* that partition
    — connectivity that the per-partition 2-hop covers already answer, so it
    is supplied as an oracle. *)

type t = {
  graph : Hopi_graph.Digraph.t;
  sources : Hopi_util.Int_hashset.t;  (** sources of cross-partition links *)
  targets : Hopi_util.Int_hashset.t;  (** targets of cross-partition links *)
  link_edges : (int * int) list;
      (** the [L_P] edges (source → target); all other PSG edges are
          within-partition connections (target → source) *)
}

val build :
  part_of:(int -> int) ->
  links:(int * int) list ->
  reaches_within_partition:(int -> int -> bool) ->
  t
(** The PSG of the cross-partition [links], each element placed in
    partition [part_of e].  [reaches_within_partition t s] must answer
    whether [t ⇝ s] using only nodes of their (common) partition. *)
