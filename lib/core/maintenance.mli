(** Incremental index maintenance (Section 6): insertions and deletions of
    nodes, edges and whole documents without rebuilding the index.

    All operations mutate both the collection and the cover, keeping them
    consistent; deletions implement the paper's two algorithms — the fast
    label-pruning path when the document *separates* the document-level
    graph (Theorem 2) and the general partial-recomputation path
    (Theorem 3). *)

type delete_stats = {
  separating : bool;
  test_seconds : float;  (** time of the separation test *)
  delete_seconds : float;
  recomputed_nodes : int;  (** size of the partially recomputed closure's
                               node set (0 on the fast path) *)
}

(** {1 Insertions (Section 6.1)} *)

val insert_element :
  Hopi_collection.Collection.t ->
  Hopi_twohop.Cover.t ->
  doc:int ->
  parent:int ->
  tag:string ->
  int
(** New element under [parent]; the tree edge is reflected in the cover. *)

val insert_link :
  Hopi_collection.Collection.t ->
  Hopi_twohop.Cover.t ->
  int ->
  int ->
  Hopi_collection.Collection.link_kind
(** Adds the link to the collection and updates the cover. *)

val insert_document :
  Hopi_collection.Collection.t ->
  Hopi_twohop.Cover.t ->
  name:string ->
  Hopi_xml.Xml_tree.t ->
  int
(** The new document is treated as a partition of its own: a cover is built
    for it and merged, then every link between it and the existing
    collection is inserted with the incremental algorithm. *)

(** {1 Deletions (Section 6.2)} *)

val separates : Hopi_collection.Collection.t -> int -> bool
(** Does this document separate the document-level graph — i.e. is every
    ancestor document connected to every descendant document only through
    it? *)

val delete_document :
  Hopi_collection.Collection.t -> Hopi_twohop.Cover.t -> int -> delete_stats

val delete_link :
  Hopi_collection.Collection.t -> Hopi_twohop.Cover.t -> int -> int -> unit
(** Deletes a single intra- or inter-document link, partially recomputing
    the closure from the source's ancestors. *)

(** {1 Subtree-level updates (Section 6.3)} *)

val delete_subtree :
  Hopi_collection.Collection.t -> Hopi_twohop.Cover.t -> int -> int
(** Remove an element and its tree descendants.  When no edge leaves the
    subtree, label pruning suffices; otherwise the general partial
    recomputation of Theorem 3 runs (its proof applies to any removed node
    set).  Returns the number of partially recomputed nodes (0 on the fast
    path). *)

(** {1 Modifications (Section 6.3)} *)

type diff_stats = {
  subtrees_deleted : int;
  subtrees_inserted : int;
  fell_back : bool;  (** the root changed: full delete + reinsert was used *)
}

val modify_document_diff :
  Hopi_collection.Collection.t ->
  Hopi_twohop.Cover.t ->
  int ->
  Hopi_xml.Xml_tree.t ->
  diff_stats
(** The alternative the paper sketches: align the old and the new version
    (X-Diff/XYDiff style — children matched by id attribute, else by tag
    and position) and apply subtree-level deletions and insertions, instead
    of dropping the whole document.  Elements whose link-relevant
    attributes changed are replaced wholesale.  The document id is
    preserved unless the root element itself changed. *)
