(** A 2-hop cover persisted as the paper's LIN/LOUT tables (Sections 3.4
    and 5.1), kept in the shape its queries read them: one
    {!Hopi_twohop.Label_codec} row per node and per center, in four
    write-once {!Row_table}s.

    {v CREATE TABLE LIN(ID NUMBER(10), INID NUMBER(10) [, DIST NUMBER(10)]) v}

    §3.4 makes LIN and LOUT index-organised tables clustered on [ID],
    with a backward index on the center.  Here:

    - the {b forward tables} hold, per node [ID], its whole [Lin] (or
      [Lout]) set as one row, ascending by [(INID, DIST)] — the result of
      [SELECT INID, DIST FROM LIN WHERE ID = :v] stored as it is
      served;
    - the {b backward tables} hold, per center [INID], one row of the
      nodes naming it with their distances, ascending by node — the
      backward index scan [SELECT ID FROM LIN WHERE INID = :w].  Nodes in
      a backward row are written as their directory slots (ranks among
      the directory keys), which keeps the deltas small and lets a
      result set be marked by slot.

    Reachability:
    {v SELECT COUNT( * ) FROM LIN, LOUT
       WHERE LOUT.ID = :u AND LIN.ID = :v AND LOUT.OUTID = LIN.INID v}
    is a merge-intersection of the rows LOUT(u) and LIN(v), plus the
    "simple additional queries" compensating for the omitted
    self-entries.

    Distance:
    {v SELECT MIN(LOUT.DIST + LIN.DIST) FROM LIN, LOUT WHERE ... v}
    is the same merge keeping the minimum sum.

    Both run as {!Hopi_twohop.Label_codec} stream merges over a
    {!type-source}, the one implementation of the cover queries: the
    store's own {!connected}/{!min_distance} and {!iter_desc}/{!iter_anc}
    over {!val-source} read rows from the heap, and [Hopi_serve.Snapshot] runs the same
    operators over its label cache.  A cold label fetch or by-center scan
    is one directory lookup in memory plus, for a row that fits in a page,
    one page read. *)

type t

(** {1 Writing a store}

    A store is written once, onto a fresh pager: page 0 is reserved for
    the {!Catalog}, then the row heap and the directory are written in
    one pass per direction (forward rows, then backward rows, both copied
    from the frozen cover), each page handed to {!Pager.write} once.  The page layout
    is a function of the cover's content.  The directory's keys are the
    registered nodes plus any center that is not one.  {!save} makes the
    store durable.

    The directory also holds a {b reachability interval} [\[low, post\]]
    per key, computed from the cover being written: over the cover graph
    (an edge [u -> c] per [c ∈ Lout(u)], [c -> v] per [c ∈ Lin(v)]),
    [post] numbers the strongly connected components in Tarjan emission
    order and [low] is the least [post] a key reaches.  The cover graph's
    closure is exactly what the cover answers, so [post v > post u] or
    [low u > low v] proves [u] does not reach [v]: {!reach} and {!dist}
    answer such a pair before any label fetch. *)

val of_cover : Pager.t -> Hopi_twohop.Cover.t -> t
(** Store a cover with each entry's distance in the DIST column (all 0
    for a plain cover).  The cover is compacted first
    ({!Hopi_twohop.Cover.compact}); its frozen rows are then copied as
    they are, so no row is sorted or bucketed here.
    @raise Invalid_argument when the pager already has pages, or on a
    node id outside [\[0, 2^31)]. *)

val of_closure : Pager.t -> Hopi_graph.Closure.t -> t
(** Store a materialised transitive closure, the baseline HOPI is
    measured against (Section 7.2), as the trivial 2-hop cover: [Lout(u)]
    holds every node [u] reaches other than itself, and every [Lin] is
    empty.  The forward LOUT table is then the closure clustered on its
    source and the backward LOUT table the same pairs clustered on their
    target, the paper's forward and backward index; {!stored_integers}
    gives its 4 integers per connection (reflexive pairs are implicit, as
    in every cover).  A [reach] is a lookup in one row, and [desc]/[anc]
    read one row each.
    @raise Invalid_argument as {!of_cover}. *)

val save : t -> unit
(** Write the catalog and {!Pager.commit}: the save is atomic — a crash at
    any point leaves a file that reopens to either the previous committed
    state or this one.  After [save] the page file can be reopened with
    {!open_pager}. *)

val open_pager : Pager.t -> t
(** Re-attach to a store saved earlier (e.g. a pager from
    {!Pager.open_existing}): reads the catalog and the directory, which
    stays in memory as flat int arrays — the store's frozen node set.
    @raise Storage_error.Storage_error on a bad catalog or directory. *)

(** {1 Queries} *)

val mem_node : t -> int -> bool
(** Is this node registered (a node of the stored cover)?  A lookup in
    the in-memory directory. *)

val with_dist : t -> bool
(** [true] when any stored label entry carries a non-zero distance (the
    DIST column variant of Section 5.1). *)

val iter_nodes : t -> (int -> unit) -> unit
(** Every registered node id, in ascending order, from the in-memory
    directory (no page read). *)

val iter_lin : t -> int -> (center:int -> dist:int -> unit) -> unit
(** [iter_lin t v f] visits the entries of node [v]'s [Lin] row in
    ascending [(center, dist)] order, decoded in place. *)

val iter_lout : t -> int -> (center:int -> dist:int -> unit) -> unit
(** [iter_lout t u f]: the entries of node [u]'s [Lout] row, like {!iter_lin}. *)

val iter_in_by_center : t -> int -> (node:int -> dist:int -> unit) -> unit
(** [iter_in_by_center t w f] visits every node that names [w] in its [Lin]
    set, in ascending node order (center [w]'s backward row) — the nodes
    enumerated when answering a descendants query through center [w]. *)

val iter_out_by_center : t -> int -> (node:int -> dist:int -> unit) -> unit
(** Dual of {!iter_in_by_center} for LOUT (ancestors direction). *)

(** {2 Cover queries over a label source} *)

type dir = Lin | Lout

val fetch : t -> dir -> int -> Hopi_twohop.Label_codec.t
(** [fetch t dir v]: node [v]'s [Lin] or [Lout] row, a copy of its stored
    bytes (empty for a node the store does not hold). *)

type source = {
  store : t;  (** backward rows for {!iter_desc}/{!iter_anc} *)
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
    [false] when either node is unknown.  A pair the store's reachability
    interval rejects is answered [false] right after the membership
    test, with no [fetch] (and counted in
    [hopi_serve_reach_cut_total]). *)

val dist : source -> int -> int -> int option
(** [min (dout(u,w) + din(w,v))] over the common centers, [Some 0] for
    [u = v] known, [None] when unconnected or unknown.  A plain cover
    stores every distance as 0.  A pair the interval rejects is [None]
    with no [fetch], as in {!reach}. *)

val iter_desc : source -> int -> (int -> unit) -> unit
(** [iter_desc src u f] calls [f] once on every node reachable from [u],
    including [u] itself (never for an unknown node): [u], the centers of
    its [Lout], then the backward LIN row of each center, each row decoded
    in place by one {!Hopi_twohop.Label_codec.iter_unmarked} pass against
    a per-call mark over directory slots.  No set is built; a node named
    by several rows, or with several distances in one, is still given to
    [f] once. *)

val iter_anc : source -> int -> (int -> unit) -> unit
(** Dual of {!iter_desc}: every node reaching the argument. *)

val connected : t -> int -> int -> bool
(** {!reach} over {!val-source}. *)

val min_distance : t -> int -> int -> int option

(** {1 Statistics} *)

val n_entries : t -> int
(** Label entries across LIN and LOUT (the paper's cover size |L|). *)

val stored_integers : t -> int
(** The paper's stored-integer count (cf. its 5,159,720): 2 per entry in
    each of the forward and backward tables ⇒ 4·entries without
    distances, 6·entries with.  The rows hold them delta-encoded, in far
    fewer bytes: see {!table_bytes}. *)

val n_nodes : t -> int

val n_keys : t -> int
(** Directory keys: the registered nodes plus every center that is not
    one. *)

val directory_bytes : t -> int
(** Bytes of the row tables' directory (keys, row lengths and
    reachability intervals as varints). *)

val table_bytes : t -> (string * int) list
(** Bytes of each row table, padding excluded: [lin], [lin_by_center],
    [lout], [lout_by_center]. *)

(** {1 Checking} *)

val check : t -> int
(** Structural check of the row tables, for [hopi verify-store]: every
    row decodes to the end of its range with ascending centers, entry
    counts match the catalog, every forward center has a row, and each
    backward table holds exactly its forward table's entries, and every
    forward entry is contained by the intervals ([(u, c)] in Lout needs
    [post c <= post u] and [low u <= low c]; [(v, c)] in Lin needs
    [post v <= post c] and [low c <= low v]) — which proves the interval
    never rejects a connected pair.  Answers the number of rows verified.
    (The directory's own invariants — ascending keys, intervals within
    [\[0, n_keys)], rows ending where the heap does — are checked by
    {!open_pager}.)
    @raise Storage_error.Storage_error [(Bad_catalog _)] on the first
    violation. *)
