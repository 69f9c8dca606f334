(** Graph traversals: BFS/DFS reachability, used throughout for oracles,
    separation tests and partial-closure recomputation. *)

val reachable : Digraph.t -> int list -> Hopi_util.Int_hashset.t
(** Multi-source forward reachability (sources included). *)

val reachable_backward : Digraph.t -> int list -> Hopi_util.Int_hashset.t
(** Multi-source backward reachability (sources included). *)

val reachable_avoiding :
  Digraph.t -> avoid:(int -> bool) -> int list -> Hopi_util.Int_hashset.t
(** Forward reachability that never enters a node satisfying [avoid];
    sources satisfying [avoid] are skipped. *)

val bfs_distances : Digraph.t -> int -> (int, int) Hashtbl.t
(** Unweighted shortest-path distances from one source (distance 0 to
    itself).  Only reachable nodes appear in the table. *)

val is_reachable : Digraph.t -> int -> int -> bool
(** BFS oracle [u ⇝ v] (true when [u = v] and [u] is a node). *)
