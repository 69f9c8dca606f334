(** Unweighted shortest-path distances.

    The distance-aware cover (Section 5 of the paper) needs all-pairs
    shortest distances within a partition: a center [w] may only cover
    [(u,v)] when [d(u,w) + d(w,v) = d(u,v)]. *)

type t

val all_pairs : Digraph.t -> t
(** BFS from every node; O(V·(V+E)). *)

val dist : t -> int -> int -> int option
(** [dist t u v] is the length of a shortest path, [Some 0] iff [u = v]
    (and [u] is a node), [None] if unreachable. *)
