(** K-shard scatter-gather routing over the paper's partition-cover
    structure (Section 4.1).

    {!split} partitions a collection document-by-document into [k]
    balanced shards, builds one independent 2-hop cover store per shard
    (covering only within-shard connections), and writes a small
    {e routing index} next to them: the element→shard map, the
    cross-shard links [L_P], and the {e transitive closure of the
    partition skeleton graph} (PSG, {!Hopi_collection.Psg}) over the
    cross-link endpoints — the replicated structure every router instance
    can hold in memory.

    {!open_dir} serves the shard directory as one logical index with
    exactly {!Hopi_storage.Cover_store} semantics:

    - a query whose endpoints miss the element map is answered like an
      unknown node (unreachable / empty set);
    - [reach u v]: within-shard answers come straight from the shard's
      snapshot; cross answers (including paths that leave and re-enter a
      shard) resolve as [u ⇝ s] within shard(u), [s ⇝ t] through the PSG
      closure, [t ⇝ v] within shard(v);
    - [desc]/[anc] scatter to every shard a PSG-reachable entry point
      lands in and merge the within-shard sets (deterministically — pure
      set union, identical for any evaluation order);
    - [dist] on distance-aware shards minimises
      [d_a(u,s) + d_psg(s,t) + d_b(t,v)] over all source/target pairs,
      where the PSG closure stores weighted distances (link edges cost 1,
      within-partition connections cost their shard's stored distance);
      on plain shards every reachable pair answers 0, like a plain
      {!Hopi_storage.Cover_store}. *)

type t

type split_stats = {
  shards : int;
  elements : int;
  cross_links : int;  (** cross-shard link edges replicated in the routing index *)
  psg_closure : int;  (** source→target pairs in the stored PSG closure *)
  entries : int;  (** label entries summed over the shard stores *)
}

val shard_path : dir:string -> int -> string
(** [dir/shard-NNN.db] *)

val routing_path : dir:string -> string
(** [dir/routing.idx] *)

val split :
  ?vfs:Hopi_storage.Vfs.t ->
  ?dist:bool ->
  ?fsync:bool ->
  k:int ->
  dir:string ->
  Hopi_collection.Collection.t ->
  split_stats
(** Partition [c] into [k] shards under [dir] (created on the real file
    system if missing).  Documents are balanced greedily by element
    count, deterministically; [k] is clamped to the document count.
    [dist] (default [false]) builds distance-aware shard covers.

    Every file — each shard store, then [routing.idx] — is published on
    [vfs] (default {!Hopi_storage.Vfs.real}) the one way page files are:
    written under a temporary name, fsynced (unless [fsync] is [false])
    and renamed into place, so each file on its own is either the old or
    the new one after a crash.  The directory as a whole is {e not}
    atomic: a crash part-way through a re-split can leave new shards
    beside an old routing index.  The routing index ends with a
    ["crc XXXXXXXX"] line, the CRC-32 of every byte before it.
    @raise Invalid_argument when [k < 1]. *)

(** {1 Serving} *)

val open_dir : ?vfs:Hopi_storage.Vfs.t -> ?pool_pages:int -> ?cache_mb:int -> string -> t
(** Open every shard store (one shared read-only page pool across all of
    them) and load the routing index, both through [vfs] (default
    {!Hopi_storage.Vfs.real}).
    @raise Hopi_storage.Storage_error.Storage_error on a missing or
    damaged file — [Bad_catalog] when the routing index fails its
    checksum — and [Sys_error] on a routing index whose checksum holds
    but whose contents do not parse. *)

val close : t -> unit

val n_shards : t -> int

val with_dist : t -> bool

val n_nodes : t -> int
(** Elements in the routing map = registered nodes over all shards. *)

val n_entries : t -> int

val shard_of : t -> int -> int option
(** Which shard an element id lives in; [None] for unknown ids. *)

(** {1 Queries}

    Safe from any domain, like {!Snapshot}'s.  Answers are byte-identical
    to an unsharded {!Hopi_storage.Cover_store} built over the whole
    collection (the qcheck differential in [test/test_shard.ml] holds
    exactly this). *)

val connected : t -> int -> int -> bool

val min_distance : t -> int -> int -> int option

val descendants : t -> int -> Hopi_util.Int_hashset.t

val ancestors : t -> int -> Hopi_util.Int_hashset.t

val engine : t -> Batch.engine
(** The scatter-gather {!Batch.engine} ([path_eval] unset). *)
