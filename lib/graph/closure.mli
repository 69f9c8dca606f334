(** Reflexive and transitive closure [C(G) = (V, T(G))].

    The closure is the input of the 2-hop-cover computation (Section 3.2 of
    the paper).  Every entry point runs one iterative Tarjan pass over the
    graph in compressed sparse rows and keep, per strongly connected
    component, the components it reaches as a word bitset, so cyclic
    graphs are handled and the cost is O(#components²/w + |E|) for the
    count, plus O(|T| log |T|) to materialise the sets.

    Connection counts always include the reflexive pairs [(v,v)], matching
    the paper's definition of [C(G)]. *)

type t

val compute : Digraph.t -> t

val count_connections : Digraph.t -> int
(** |T(G)| including reflexive pairs, without materialising per-node sets:
    the closure-aware partitioner's admission test (Section 4.3). *)

val succs_among : Digraph.t -> from:int array -> among:int array -> int array array
(** [(succs_among g ~from ~among).(i)] holds, ascending, every position [j]
    with [from.(i) ⇝ among.(j)] (reflexively).  One kernel pass, read
    straight off the component bitsets: no per-node set is materialised,
    and the cost past the pass is [|from| × |among|] bit tests.
    @raise Invalid_argument if a node of [from] or [among] is not in [g]. *)

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
