(** A 2-hop cover persisted in LIN/LOUT tables, with the paper's SQL
    statements expressed as index operations (Sections 3.4 and 5.1).

    Reachability:
    {v SELECT COUNT( * ) FROM LIN, LOUT
       WHERE LOUT.ID = :u AND LIN.ID = :v AND LOUT.OUTID = LIN.INID v}
    is a merge-intersection of the forward-index scans of LOUT(u) and
    LIN(v), plus the "simple additional queries" compensating for the
    omitted self-entries.

    Distance:
    {v SELECT MIN(LOUT.DIST + LIN.DIST) FROM LIN, LOUT WHERE ... v}
    is the same merge keeping the minimum sum.

    Both run as {!Hopi_twohop.Label_codec} stream merges over a
    {!type-source}, the one implementation of the cover queries: the store's
    own {!connected}/{!min_distance}/{!descendants}/{!ancestors} fetch
    labels by range scan, and [Hopi_serve.Snapshot] runs the same
    operators over its label cache. *)

type t

(** {1 Writing a store}

    A store is written once, onto a fresh pager: every LIN/LOUT row is
    collected up front, sorted, and handed to {!Btree.bulk_load}, so each
    page is written once, in key order, with no per-entry descent.  The
    page layout is deterministic for a given cover.  Page 0 is reserved
    for the {!Catalog}; {!save} makes the store durable. *)

val of_cover : Pager.t -> Hopi_twohop.Cover.t -> t
(** Store a plain cover (all distances 0).
    @raise Invalid_argument when the pager already has pages. *)

val of_dist_cover : Pager.t -> Hopi_twohop.Dist_cover.t -> t
(** {!of_cover} for distance-aware covers (the DIST column variant of
    Section 5.1). *)

val pager : t -> Pager.t

val save : t -> unit
(** Write the catalog and {!Pager.commit}: the save is atomic — a crash at
    any point leaves a file that reopens to either the previous committed
    state or this one.  After [save] the page file can be reopened with
    {!open_pager}. *)

val open_pager : Pager.t -> t
(** Re-attach to a store saved earlier (e.g. a pager from
    {!Pager.open_existing}).
    @raise Storage_error.Storage_error on a bad catalog. *)

(** {1 Queries} *)

val mem_node : t -> int -> bool
(** Is this node in the store's node registry (a node of the stored
    cover)? *)

val with_dist : t -> bool
(** [true] when any stored label entry carries a non-zero distance (the
    DIST column variant of Section 5.1). *)

val iter_nodes : t -> (int -> unit) -> unit
(** Every registered node id, in ascending order — a full scan of the node
    registry.  Used by {!Hopi_serve.Snapshot} to freeze the node set in
    memory at open time. *)

val iter_lin : t -> int -> (center:int -> dist:int -> unit) -> unit
(** [iter_lin t v f] visits the LIN rows of node [v] — its [Lin] label set
    — in ascending [(center, dist)] order (a forward-index range scan),
    the {!Hopi_twohop.Label_codec.Enc} input order {!val-fetch} relies on. *)

val iter_lout : t -> int -> (center:int -> dist:int -> unit) -> unit
(** [iter_lout t u f]: the LOUT rows of node [u], like {!iter_lin}. *)

val iter_in_by_center : t -> int -> (node:int -> dist:int -> unit) -> unit
(** [iter_in_by_center t w f] visits every node that names [w] in its [Lin]
    set, in ascending node order (a backward-index range scan) — the rows
    enumerated when answering a descendants query through center [w]. *)

val iter_out_by_center : t -> int -> (node:int -> dist:int -> unit) -> unit
(** Dual of {!iter_in_by_center} for LOUT (ancestors direction). *)

(** {2 Cover queries over a label source} *)

type dir = Lin | Lout

val fetch : t -> dir -> int -> Hopi_twohop.Label_codec.t
(** [fetch t dir v]: node [v]'s [Lin] or [Lout] rows, encoded — one
    forward-index range scan fed to {!Hopi_twohop.Label_codec.Enc}. *)

type source = {
  store : t;  (** backward-index scans for {!desc}/{!anc} *)
  mem : int -> bool;  (** node membership *)
  fetch : dir -> int -> Hopi_twohop.Label_codec.t;  (** label sets *)
}
(** Where the cover queries read stored labels from.  [fetch] must
    answer what {!val-fetch} on [store] answers (a cache in front of it is
    the point), and [mem] what {!mem_node} answers. *)

val source : t -> source
(** The uncached source: {!mem_node} and {!val-fetch}. *)

val reach : source -> int -> int -> bool
(** [(Lout(u) ∪ {u}) ∩ (Lin(v) ∪ {v}) ≠ ∅]; reflexive for known nodes,
    [false] when either node is unknown. *)

val dist : source -> int -> int -> int option
(** [min (dout(u,w) + din(w,v))] over the common centers, [Some 0] for
    [u = v] known, [None] when unconnected or unknown.  A plain cover
    stores every distance as 0. *)

val desc : source -> int -> Hopi_util.Int_hashset.t
(** Every node reachable from the argument, including itself (empty for
    an unknown node): the centers of its [Lout], then a backward-index
    scan of LIN per center. *)

val anc : source -> int -> Hopi_util.Int_hashset.t
(** Dual of {!desc}. *)

val connected : t -> int -> int -> bool
(** {!reach} over {!val-source}. *)

val min_distance : t -> int -> int -> int option

val descendants : t -> int -> Hopi_util.Int_hashset.t

val ancestors : t -> int -> Hopi_util.Int_hashset.t

(** {1 Statistics} *)

val n_entries : t -> int
(** Label entries across LIN and LOUT (the paper's cover size |L|). *)

val stored_integers : t -> int
(** Integers kept on pages: 2 per entry per direction ⇒ 4·entries without
    distances, 6·entries with (cf. the paper's 5,159,720 number). *)

val n_nodes : t -> int
