(** Densest-subgraph 2-approximation on a center graph (Section 3.2).

    The center graph of a node [w] is the undirected bipartite graph with a
    left node for every ancestor [u ∈ Cin(w)], a right node for every
    descendant [v ∈ Cout(w)], and an edge per uncovered connection [(u,v)].
    The classic linear-time 2-approximation peels a minimum-degree node per
    step and returns the densest intermediate subgraph.

    A {!t} is a reusable workspace: the caller fills one center graph with
    {!start}, {!add_left} and {!add_edge}, and {!run} peels it.  Nodes are
    local numbers; left and right nodes are separate sides, so one number
    may appear on both.  The graph lives in flat arrays (compressed sparse
    rows per side, an array bucket queue per degree, and a right-node index
    that is reset after each run), which grow as needed and are reused. *)

type result = {
  density : float;  (** |E'| / |V'| of the returned subgraph *)
  c_in : int array;  (** chosen subset [C'_in], ascending *)
  c_out : int array;  (** chosen subset [C'_out], ascending *)
  n_edges : int;  (** number of (uncovered) connections the choice covers *)
}

type t

val create : unit -> t

val start : t -> unit
(** Empty the center graph. *)

val add_left : t -> int -> unit
(** Add a left node; the following {!add_edge} calls attach to it.  A left
    node left without edges is dropped.  Left nodes must come in ascending
    order. *)

val add_edge : t -> int -> unit
(** An edge from the last left node to right node [v]; an edge must not be
    added twice. *)

val edges : t -> int
(** Edges added since {!start}. *)

val run : t -> result option
(** Peel the center graph: repeatedly remove a node of minimum degree
    (the most recently queued one among equals) and keep the densest
    intermediate subgraph, the earliest among equals.  [None] iff there
    are no edges. *)
