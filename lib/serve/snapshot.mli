(** A read-only, multi-domain view of a persisted cover store.

    [open_file] attaches to a page file written by [hopi build --store]
    (a {!Hopi_storage.Cover_store}) and serves reachability and distance
    queries from it without ever writing a page.

    A snapshot is the store plus a cache: the queries are
    {!Hopi_storage.Cover_store.reach}/[dist]/[iter_desc]/[iter_anc] run over a
    {!Hopi_storage.Cover_store.type-source} whose membership test is the
    store's directory, read into memory at open time, and whose label
    fetch goes through the {!Label_cache}, where label sets live in their
    delta-encoded {!Hopi_twohop.Label_codec} form.  A warm probe is a
    cache lookup per label set and two codec stream merges; a miss is one
    row read, usually one page.

    Concurrency model: the snapshot opens the store {e once}, as a shared
    read-only pager view ({!Hopi_storage.Pager.open_shared}) over a
    sharded read-only page pool, and every worker domain probes that one
    handle.  The row read path touches no mutable storage state; page
    lookups go through the pool's sharded locks, miss I/O serialises
    inside the pager, and a page any domain faulted in is warm for all of
    them.  What domains additionally share is the immutable directory and
    the {!Label_cache}, whose sharded entries are write-once encoded label
    sets.  This is what makes batch evaluation on a {!Hopi_util.Pool}
    safe without a global lock. *)

type t

val open_file :
  ?pool_pages:int ->
  ?pool:Hopi_storage.Pager.Read_pool.t ->
  ?vfs:Hopi_storage.Vfs.t ->
  ?cache_mb:int ->
  ?cache:Label_cache.t ->
  ?epoch:int ->
  ?node_version:(int -> int) ->
  string ->
  t
(** Attach to a committed page file.  [pool_pages] (default 4096 pages =
    16 MiB) sizes the shared read-only page pool created for this
    snapshot; [pool] plugs in an externally owned
    {!Hopi_storage.Pager.Read_pool} instead (ignoring [pool_pages]) — the
    generational serving layer shares one pool across generations this
    way.  [vfs] (default the real file system) is the backing
    {!Hopi_storage.Vfs}, used by the fault-injection tests to exercise
    torn and failing reads through the shared read path.

    [cache_mb] (default 64) is the label-cache budget, 0 disables
    caching.  [cache] plugs in an externally owned {!Label_cache} instead
    of creating a private one (ignoring [cache_mb]).  [epoch] (default 0)
    tags the snapshot with the generation it was opened against; it is
    purely descriptive here and reported by {!epoch}.  [node_version] (default:
    constant 0) supplies the cache-key version of each node's labels
    ({!Label_cache.key}); it is captured at open time and must be
    immutable — a frozen map, not a view of live writer state — so every
    label fetched through this snapshot resolves to the same versioned
    key for its whole lifetime.
    @raise Hopi_storage.Storage_error.Storage_error on a missing file, or
    a corrupt catalog or one of another store kind. *)

val close : t -> unit
(** Release the shared pager (dropping this snapshot's pages from the
    read pool).  Call after all in-flight batches have drained. *)

val n_nodes : t -> int
(** Registered nodes. *)

val n_entries : t -> int
(** Label entries across LIN and LOUT. *)

val cache : t -> Label_cache.t

val path : t -> string

val epoch : t -> int
(** The generation this snapshot was opened against (0 for standalone
    snapshots).  An in-flight batch holds one snapshot for all of its
    queries, so the epoch of every answer in a batch is the same — a batch
    never straddles a generation flip. *)

(** {1 Queries}

    All query functions may be called concurrently from any domain. *)

val iter_nodes : t -> (int -> unit) -> unit
(** Every registered node, ascending, from the directory read at open
    (no page read). *)

val label : t -> Label_cache.dir -> int -> Hopi_twohop.Label_codec.t
(** A node's [Lin] or [Lout] label set, fetched through the label cache
    (empty for a node the store does not hold). *)

val connected : t -> int -> int -> bool
(** [connected t u v]: does the stored index contain the connection
    [u ⇝ v]?  Reflexive ([u = v] answers [true] for any known node). *)

val min_distance : t -> int -> int -> int option
(** Shortest stored distance.  On a plain (distance-free) cover every
    reachable pair reports the stored distance 0; only a distance-aware
    cover ({!Hopi_storage.Cover_store.with_dist}) carries real path
    lengths. *)

val iter_desc : t -> int -> (int -> unit) -> unit
(** [iter_desc t u f] calls [f] once on every node reachable from [u]
    (including [u] itself; nothing for an unknown node), building no set:
    {!Hopi_storage.Cover_store.iter_desc}.  The argument's [Lout] comes
    through the label cache; the per-center backward rows do not. *)

val iter_anc : t -> int -> (int -> unit) -> unit
(** Dual of {!iter_desc}: every node reaching the argument. *)
