(** The HOPI index facade: a connection index over a collection of linked
    XML documents, backed by a 2-hop cover.

    Typical use:
    {[
      let c = Collection.create () in
      ignore (Collection.add_document c ~name:"a.xml" (parse "..."));
      let idx = Hopi.create c in
      Hopi.connected idx u v          (* ancestor/descendant/link axis test *)
    ]}

    The index stays consistent across {!insert_document_xml},
    {!remove_document}, {!insert_link} and the other maintenance entry
    points. *)

type t

val create : ?config:Config.t -> Hopi_collection.Collection.t -> t
(** Builds the index for the current collection contents. *)

val collection : t -> Hopi_collection.Collection.t

val cover : t -> Hopi_twohop.Cover.t

val last_build : t -> Build.result
(** Statistics of the most recent (re)build. *)

(** {1 Queries} *)

val connected : t -> int -> int -> bool
(** [connected t u v]: is element [v] reachable from element [u] along
    parent/child edges and links (the descendant-or-self axis over the
    element graph)? *)

val descendants : t -> int -> Hopi_util.Int_hashset.t

val descendants_with_tag : t -> int -> string -> int list

(** {1 Maintenance} *)

val insert_document_xml :
  t -> name:string -> string -> (int, Hopi_xml.Xml_parser.error) result

val remove_document : t -> int -> Maintenance.delete_stats

val modify_document_diff : t -> int -> Hopi_xml.Xml_tree.t -> Maintenance.diff_stats
(** Diff-based modification (Section 6.3): subtree-level edits instead of
    delete + reinsert. *)

val remove_subtree : t -> int -> int
(** Returns the number of partially recomputed nodes (0 on the fast path). *)

val insert_element : t -> doc:int -> parent:int -> tag:string -> int

val insert_link : t -> int -> int -> Hopi_collection.Collection.link_kind

val remove_link : t -> int -> int -> unit

val rebuild : t -> Build.result
(** Rebuild from scratch with the configured algorithms (the paper's
    occasional re-optimisation after many updates). *)

(** {1 Storage and statistics} *)

val size : t -> int
(** Cover entries |L|. *)

val to_store : t -> Hopi_storage.Pager.t -> Hopi_storage.Cover_store.t
(** Write the cover into LIN/LOUT tables on the given fresh pager
    ({!Hopi_storage.Cover_store.of_cover}); the store is not saved yet. *)

val distance_index : t -> Hopi_twohop.Cover.t
(** Build the distance-aware cover for the current element graph
    (Section 5, {!Hopi_twohop.Dist_builder}).  Computed on demand and
    cached until the next update: every maintenance call, insertions
    included, drops it, and the next call rebuilds it. *)

val text_index : t -> Hopi_collection.Text_index.t
(** Inverted index over element text for IR-style content conditions
    (Section 1.1).  Computed on demand and cached until the next update. *)

val self_check : t -> bool
(** Exhaustive oracle: does the cover agree with BFS reachability?
    O(n²) — for tests and small collections only. *)
