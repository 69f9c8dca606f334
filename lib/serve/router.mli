(** K-shard scatter-gather routing over the paper's partition-cover
    structure (Section 4.1).

    {!split} partitions a collection document-by-document into [k]
    balanced shards, builds one independent 2-hop cover store per shard
    (covering only within-shard connections), and writes a small
    {e routing index} next to them holding only what the shards cannot
    tell: which generation of shard stores it commits, the shard count,
    the [dist] flag and the cross-shard links [L_P].

    {!open_dir} derives the rest from the shards.  The element→shard map
    is each shard's registered node set.  The {e partition skeleton
    graph} (PSG, {!Hopi_collection.Psg}) has the cross-link endpoints as
    nodes, the links as edges, and a within edge wherever a link target
    reaches a link source inside its shard (answered by that shard's
    snapshot); its {e transitive closure} pairs every link source [s]
    with every link target [t] it reaches over at least one PSG edge, at
    [d_psg(s,t)] (a link costs 1, a within edge the shard's stored
    distance): a source that is also a target is paired with itself
    only when a PSG cycle returns to it.

    {!open_dir} serves the shard directory as one logical index with
    exactly {!Hopi_storage.Cover_store} semantics.  At open it folds the
    PSG closure into a second level of 2-hop labels over the shards' own
    labels, whose centers are the shard-cover centers around the cross
    links (the paper's §3.4 merge, with link targets as the preselected
    centers of §4.2):

    - {e exit rows}: for every center [c ∈ Lin(s) ∪ {s}] of a link source
      [s], the set of rows [(t, min din(c,s) + d_psg(s,t))] over the
      closure targets [t] of all such sources;
    - {e entry rows}: for every center [c' ∈ Lout(t) ∪ {t}] of a link
      target [t], the set of rows [(t, dout(t,c'))].

    Each center belongs to exactly one shard's cover, so one table per
    kind serves every shard.  Both are {!Hopi_twohop.Label_codec} sets,
    immutable after open, and reported by the gauges
    [hopi_router_exit_rows] and [hopi_router_exit_bytes] (exit plus
    entry rows).  Queries:

    - a query whose endpoints miss the element map is answered like an
      unknown node (unreachable / empty set);
    - [reach u v]: a same-shard pair connected within its shard is
      answered by that shard's snapshot; otherwise the answer is whether
      [exit c] and [entry c'] share a target for some
      [c ∈ Lout(u) ∪ {u}] and [c' ∈ Lin(v) ∪ {v}] — this covers paths
      that leave and re-enter a shard, through any number of shards;
    - [dist u v]: the least [dout(u,c) + merge_min (exit c) (entry c')
      + din(c',v)] over the same pairs, against the within-shard
      distance of a same-shard pair.  On distance-aware shards even a
      same-shard pair is routed when a cross link lands in its shard (a
      path through other shards may be shorter); on plain shards every
      stored distance is 0, so every reachable pair answers 0, like a
      plain {!Hopi_storage.Cover_store};
    - [desc u] ([anc v]): the link targets the exit rows of
      [{u} ∪ Lout(u)] reach (the sources of the targets in the entry rows
      of [{v} ∪ Lin(v)]), and the within-shard sets of each merged into
      the shard-local answer (pure set union, identical for any
      evaluation order). *)

type t

type split_stats = {
  shards : int;
  elements : int;
  cross_links : int;  (** cross-shard link edges stored in the routing index *)
  entries : int;  (** label entries summed over the shard stores *)
}

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

    Every file is published on [vfs] (default {!Hopi_storage.Vfs.real})
    the one way page files are: written under a temporary name, fsynced
    (unless [fsync] is [false]) and renamed into place.  The shard stores
    come first, under the names of a new generation G: one past the
    highest generation any shard file in [dir] carries, so a re-split
    never overwrites the stores being served ([shard-NNN.db] for G = 0,
    a first split; [shard-NNN.db.gen<G>] after, see
    {!Hopi_storage.Manifest.gen_path}).  [routing.idx], which names G, is
    published last: its rename commits the split, so after a crash
    anywhere the directory serves the old split or the new one in full.
    Only then are the shard stores of every other generation, and their
    temporary leftovers, deleted; no other file in [dir] is touched.
    @raise Invalid_argument when [k < 1]. *)

(** {1 The routing index} *)

type routing = {
  gen : int;  (** the generation of the shard stores it names *)
  n_shards : int;
  dist : bool;  (** the shards hold distance-aware covers *)
  links : (int * int) list;  (** the cross-shard links, ascending *)
}

val read_routing : ?vfs:Hopi_storage.Vfs.t -> string -> routing
(** Read and check one routing index through [vfs] (default
    {!Hopi_storage.Vfs.real}).  It is a {!Hopi_storage.Pager} file: a
    header (magic, version, generation, shard count, [dist] flag, link
    count, stream length) and the sorted links as one
    {!Hopi_twohop.Label_codec} stream of (source, target) rows, carried
    across as many pages as they need.  It opens no shard; {!open_dir}
    starts with it, and [hopi verify-store] runs it alone.
    @raise Hopi_storage.Storage_error.Storage_error [Checksum] on a
    damaged page, [Truncated] on a file that is not whole pages (a text
    routing index of an older version: its hint asks for a re-run of
    [shard-split]), [Bad_magic] on another page file, [Bad_version], and
    [Bad_catalog] when the header and the link stream disagree. *)

(** {1 Serving} *)

val open_dir : ?vfs:Hopi_storage.Vfs.t -> ?pool_pages:int -> ?cache_mb:int -> string -> t
(** Load the routing index, then open the shard stores of the generation
    it names (one shared read-only page pool across all of them), both
    through [vfs] (default {!Hopi_storage.Vfs.real}); derive the element
    map and the PSG from the shards (span [router.open.psg]); take the
    PSG's closure from one {!Hopi_graph.Closure.succs_among} pass, the
    kernel the PSG join runs, with every distance 0 on plain shards and,
    on distance-aware ones, one bucket-queue (Dial) shortest-path search
    per link source over the integer-weighted PSG (span
    [router.open.closure]); then build the exit and entry rows from the
    label sets of every link endpoint, read through the shared label
    cache (span [router.open.rows]).
    @raise Hopi_storage.Storage_error.Storage_error on a missing or
    damaged file (as {!read_routing} for the routing index), and
    [Sys_error] on an element two shards register, or on a link with an
    endpoint no shard registers or with both endpoints in one shard. *)

val close : t -> unit

val n_shards : t -> int

val with_dist : t -> bool

val n_nodes : t -> int
(** Elements in the element map = registered nodes over all shards. *)

val n_entries : t -> int

val shard_of : t -> int -> int option
(** Which shard an element id lives in; [None] for unknown ids. *)

(** {1 Queries}

    Safe from any domain, like {!Snapshot}'s.  Answers are byte-identical
    to an unsharded {!Hopi_storage.Cover_store} built over the whole
    collection (the qcheck differential in [test/test_shard.ml] holds
    exactly this). *)

val connected : t -> int -> int -> bool

val engine : t -> Batch.engine
(** The scatter-gather {!Batch.engine} ([path_eval] unset). *)
