(** Mutable directed graphs over integer node identifiers.

    Node ids are arbitrary (not necessarily dense) non-negative integers —
    element ids are global across an XML collection, and subgraphs (partitions,
    skeleton graphs) reuse the original ids.  Edges are unlabelled and stored
    at most once; parallel edges collapse. *)

type t

val create : ?initial:int -> unit -> t

val add_node : t -> int -> unit
(** Idempotent. *)

val add_edge : t -> int -> int -> unit
(** [add_edge g u v] adds nodes [u], [v] as needed; idempotent. *)

val remove_edge : t -> int -> int -> unit

val remove_node : t -> int -> unit
(** Removes the node and all incident edges. *)

val mem_node : t -> int -> bool

val mem_edge : t -> int -> int -> bool

val n_nodes : t -> int

val n_edges : t -> int

val iter_succ : t -> int -> (int -> unit) -> unit

val iter_pred : t -> int -> (int -> unit) -> unit

val iter_nodes : t -> (int -> unit) -> unit

val iter_edges : t -> (int -> int -> unit) -> unit

val csr : t -> pred:bool -> int array * int array * int array
(** [(ids, off, adj)], compressed sparse rows: node [i] is [ids.(i)] in
    {!iter_nodes} order; [adj.(off.(i)) .. adj.(off.(i + 1) - 1)] are its
    successors (predecessors with [~pred:true]) as node numbers, in
    {!iter_succ} ({!iter_pred}) order. *)

val nodes : t -> int list

val induced_subgraph : t -> Hopi_util.Int_hashset.t -> t
(** Subgraph on the given nodes with all edges between them. *)
