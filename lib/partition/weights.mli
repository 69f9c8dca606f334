(** Edge-weight schemes for partitioning the document-level graph
    (Section 4.3 of the paper).

    - [Links]: weight of a document edge = number of links between the two
      documents (the EDBT'04 default).
    - [A_times_D]: each link [(u,v)] weighs [A(u) * D(v)] — the number of
      element connections made over this link.
    - [A_plus_D]: each link weighs [A(u) + D(v)] — the number of elements
      connected over this link.

    [A]/[D] are the (approximated) global ancestor/descendant counts from
    the skeleton-graph annotation. *)

type scheme = Links | A_times_D | A_plus_D

val scheme_name : scheme -> string

val all_schemes : scheme list

val doc_graph :
  ?max_depth:int ->
  Hopi_collection.Collection.t ->
  scheme ->
  Hopi_collection.Doc_graph.t
(** The document-level graph with each link weighted by the scheme
    ({!Hopi_collection.Doc_graph.of_collection}'s [link_weight]).
    [max_depth] bounds the skeleton-graph traversals (default 8). *)
