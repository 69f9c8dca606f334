(** Distance-aware 2-hop covers (Section 5): label entries carry the
    shortest distance to/from their center, so that
    [d(u,v) = min over common centers w of dout(u,w) + din(w,v)]
    — the SQL [MIN(LOUT.DIST + LIN.DIST)] of the paper.

    Self-entries (distance 0) are implicit, exactly as in {!Cover}. *)

type t

val create : ?initial:int -> unit -> t

val add_node : t -> int -> unit

val mem_node : t -> int -> bool

val n_nodes : t -> int

val iter_nodes : t -> (int -> unit) -> unit

val add_in : t -> node:int -> center:int -> dist:int -> unit
(** Keeps the minimum if an entry for this center already exists. *)

val add_out : t -> node:int -> center:int -> dist:int -> unit

val dist : t -> int -> int -> int option
(** Length of a shortest path, [None] when unconnected, [Some 0] iff equal
    registered nodes. *)

val connected : t -> int -> int -> bool

val iter_lin : t -> int -> (int -> int -> unit) -> unit
(** [iter_lin t v f] calls [f center dist] for each explicit entry. *)

val iter_lout : t -> int -> (int -> int -> unit) -> unit

val size : t -> int
(** Number of explicit label entries. *)

(** {1 Mutation (incremental maintenance, Section 6)} *)

val union_into : dst:t -> t -> unit
(** Component-wise union keeping minimum distances. *)

val clear_lout : t -> int -> unit

val filter_lin : t -> int -> keep:(int -> bool) -> unit
(** Drop Lin entries whose center fails [keep]. *)

val filter_lout : t -> int -> keep:(int -> bool) -> unit

val remove_node : t -> int -> unit
(** Drop the node's labels and every entry naming it as a center. *)
