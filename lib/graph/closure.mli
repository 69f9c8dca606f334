(** Reflexive and transitive closure [C(G) = (V, T(G))].

    The closure is the input of the 2-hop-cover computation (Section 3.2 of
    the paper).  Every entry point runs one iterative Tarjan pass over the
    graph in compressed sparse rows and gives the members of each strongly
    connected component consecutive {e local numbers} [0 .. n_nodes - 1]
    in emission order, which is topological: a node reaches only numbers
    below its component's last member.  Per component it keeps the local
    numbers it reaches as a {!Hopi_util.Bitrow} that covers only the words
    between the lowest and the highest of them, so cyclic graphs are
    handled and the cost is O(|E| + Σ row words).  Nothing is materialised
    per node: the id-level sets below are read off the rows on each call.

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
    and the cost past the pass is [|from| × |among|] bit tests, each made
    once.
    @raise Invalid_argument if a node of [from] or [among] is not in [g]. *)

val intervals : off:int array -> succ:int array -> int array * int array
(** Reachability intervals of the graph on nodes [0 .. Array.length off - 2]
    whose successors of [u] are [succ.(off.(u))] .. [succ.(off.(u + 1) - 1)],
    from the same Tarjan pass as every other entry point: roots ascending,
    successors in row order.  [(post, low)]: [post.(u)] is the emission index
    of [u]'s SCC, [low.(u)] the least [post] [u] reaches.  Members of one SCC
    share both, and [u ⇝ v] implies [post.(v) <= post.(u)] and
    [low.(u) <= low.(v)]; so [v] lies in [[low.(u), post.(u)]] whenever
    [u ⇝ v]. *)

val n_connections : t -> int

val n_nodes : t -> int

val mem : t -> int -> int -> bool
(** [mem c u v] iff [u ⇝ v] (reflexively: [mem c v v] for any node [v]). *)

val succs : t -> int -> Hopi_util.Int_set.t
(** Descendants of a node, including itself ([Cout] in the paper). *)

val preds : t -> int -> Hopi_util.Int_set.t
(** Ancestors of a node, including itself ([Cin] in the paper). *)

val iter_nodes : t -> (int -> unit) -> unit
(** Node ids in ascending local number. *)

(** {1 Local numbers}

    The cover builders work on local numbers throughout. *)

val number : t -> int -> int
(** Local number of a node id, [-1] if the id is not a node. *)

val id : t -> int -> int
(** Node id of a local number. *)

val reach_lo : t -> int -> int

val reach_row : t -> int -> int array
(** [(reach_lo c x, reach_row c x)] is the {!Hopi_util.Bitrow} of the
    local numbers [x] reaches, itself included; members of one component
    share it, and it must not be written to. *)

val iter_ancestors : t -> int -> (int -> unit) -> unit
(** [iter_ancestors c x f]: [f y] for every local number [y ⇝ x], [x]
    included, ascending.  The first call indexes the transposed rows, one
    int per pair of components in the closure. *)
