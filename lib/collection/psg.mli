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
  lin:(int -> (int -> int -> unit) -> unit) ->
  lout:(int -> (int -> int -> unit) -> unit) ->
  t
(** The PSG of the cross-partition [links].  [lin s f] and [lout t f]
    call [f center dist] on each center of the node's [Lin] or [Lout]
    label in the 2-hop cover of its own partition.  The within edge
    [t → s] exists exactly when [t <> s] and some center of
    [Lout(t) ∪ {t}] is in [Lin(s) ∪ {s}]: the cover's own reachability
    test.  A partition cover's centers never leave its partition, so a
    common center also says that [t] and [s] share one.  The row stage
    below groups the sources by those centers, and each target's
    [Lout(t) ∪ {t}] is flattened once against the groups. *)

(** {1 The row stage}

    The PSG closure folded into per-center rows over the partition
    covers' labels (§3.4's backward rows, with the link targets as the
    preselected centers of §4.2).  The router serves them; the join
    flattens them through each node's own labels into [Ĥ] (Theorem 1). *)

type rows = {
  keys : int array;  (** ascending node ids; row [i] is [keys.(i)]'s *)
  lo : int array;
  bits : int array array;
      (** row [i]: the {!Hopi_util.Bitrow} row [(lo.(i), bits.(i))] over
          dense numbers, empty or with non-zero end words *)
  dist : int array array;
      (** row [i]'s distances, ascending by number; empty for none (0) *)
}

val of_sets : keys:int array -> ?dist:int array array -> int array array -> rows
(** Row [i] holds the ascending numbers [sets.(i)], at [dist.(i)]. *)

val index : rows -> int -> int
(** [index rows] looks a center's row up (-1: none). *)

val routes :
  targets:int array ->
  lin:(int -> (int -> int -> unit) -> unit) ->
  lout:(int -> (int -> int -> unit) -> unit) ->
  rows ->
  rows * rows
(** [routes ~targets ~lin ~lout closure] is [(exits, entries)], over the
    numbers of the ascending [targets] and keyed by the centers whose row
    is not empty:

    - [exit(c)]: the union of the [closure] rows of the link sources [s]
      with [c ∈ Lin(s) ∪ {s}], each target [t] at the least
      [din(c, s) + d(s, t)];
    - [entry(c)]: the link targets [t] with [c ∈ Lout(t) ∪ {t}], each at
      [dout(t, c)].

    [closure] is keyed by link sources; [lin]/[lout] are as for {!build},
    each center once.  Without distances in [closure] the results carry
    none.  The router's closure keeps a source on a PSG cycle in its own
    row; the join's [H̄] does not. *)

(** {2 Flattening: a node's rows ORed into one dense bit row} *)

type scratch

val scratch : int -> scratch
(** An empty set over [n] numbers. *)

val flatten :
  scratch -> rows -> (int -> int) -> (int -> (int -> int -> unit) -> unit) -> int -> (int -> unit) -> unit
(** [flatten s rows row label v f]: [f j] once per number [j], ascending,
    in the rows of [v] and of the centers [label v] names; [row] is the
    rows' {!index}.  [s] is empty before and after. *)
