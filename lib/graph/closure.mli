(** Reflexive and transitive closure [C(G) = (V, T(G))].

    The closure is the input of the 2-hop-cover computation (Section 3.2 of
    the paper).  It is computed over the SCC condensation with bitset
    successor sets, so cyclic graphs are handled and the cost is
    O(#components²/w + |T|) rather than repeated BFS.

    Connection counts always include the reflexive pairs [(v,v)], matching
    the paper's definition of [C(G)]. *)

type t

val compute : Digraph.t -> t

val compute_bounded : Digraph.t -> max_connections:int -> t option
(** [None] when |T(G)| would exceed the budget — used by the closure-aware
    partitioner to grow partitions until the closure fills the configured
    memory (Section 4.3). *)

val count_connections : Digraph.t -> int
(** |T(G)| including reflexive pairs, without materialising per-node sets. *)

val n_connections : t -> int

val n_nodes : t -> int

val mem : t -> int -> int -> bool
(** [mem c u v] iff [u ⇝ v] (reflexively: [mem c v v] for any node [v]). *)

val succs : t -> int -> Hopi_util.Int_set.t
(** Descendants of a node, including itself ([Cout] in the paper). *)

val preds : t -> int -> Hopi_util.Int_set.t
(** Ancestors of a node, including itself ([Cin] in the paper). *)

val iter_nodes : t -> (int -> unit) -> unit

val iter_pairs : t -> (int -> int -> unit) -> unit
(** All connections, including reflexive ones. *)

val nodes : t -> int list
