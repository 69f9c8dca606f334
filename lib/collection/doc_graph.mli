(** The document-level graph [G_D(X)] (Section 2): one node per document, an
    edge [(d_i, d_j)] when some link connects an element of [d_i] to an
    element of [d_j].  Edges carry a weight used by the partitioners — by
    default the number of links between the two documents, or any per-link
    weight supplied by the caller (the A*D / A+D schemes of Section 4.3). *)

type t = {
  graph : Hopi_graph.Digraph.t;  (** nodes are document ids *)
  edge_weight : (int * int, float) Hashtbl.t;
}

val of_collection :
  ?link_weight:(int * int -> float) -> Collection.t -> t
(** [link_weight (u,v)] is the weight contributed by the element-level link
    [(u,v)]; per-document-pair weights are the sums.  Default: 1 per link. *)

val edge_weight : t -> int -> int -> float
