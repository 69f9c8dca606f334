(** A sharded, size-bounded LRU cache for label sets.

    The serving layer's hot path is fetching [Lin]/[Lout] label sets of the
    same nodes over and over (real query workloads are heavily skewed), and
    every uncached fetch is a B+-tree range scan through the pager — page
    cache probes, CRC verification on misses, per-row closure calls.  This
    cache keeps the materialised label sets in memory — in their
    delta-encoded {!Hopi_twohop.Label_codec} form, a few bytes per row —
    so a hot fetch is one hash probe.

    Concurrency: the key space is split across [shards] independent
    sub-caches, each protected by its own mutex, so worker domains serving
    disjoint keys rarely contend.  Entries are immutable once inserted —
    callers must treat the returned bytes as read-only (they are shared
    with every other reader of that key).

    Size accounting: each entry is charged its payload bytes plus a fixed
    bookkeeping overhead ({!entry_cost}); a shard evicts from its LRU end
    until it is back under its slice of [capacity_bytes].  An entry larger
    than a whole shard slice is not cached at all (caching it would evict
    everything else and still overflow).

    Metrics (registered in [Hopi_obs.Registry]):
    [hopi_serve_cache_hits_total], [hopi_serve_cache_misses_total],
    [hopi_serve_cache_evictions_total], [hopi_serve_cache_bytes],
    [hopi_serve_cache_entries]. *)

type t

type dir = Hopi_storage.Cover_store.dir = Lin | Lout

val key : ?version:int -> dir -> int -> int
(** [key ?version dir node] packs a label-set identity into the integer
    key space: direction in the low bit, node id next, [version] (default
    0) in the high bits.  Versions let several generations of the same
    node's labels coexist in one shared cache — a snapshot opened against
    generation [g] asks for the key of the version its store file actually
    holds, so an entry cached by an older generation is simply never
    requested again once the node's labels change (see
    [Hopi_serve.Generation]).  With the default version this is exactly
    the key {!Snapshot} has always used. *)

val create : ?shards:int -> capacity_bytes:int -> unit -> t
(** [shards] (default 16) is rounded up to a power of two;
    [capacity_bytes] is the total budget across all shards.
    [capacity_bytes <= 0] creates a disabled cache: {!find} always misses
    (without counting metrics) and {!add} is a no-op — the cold-path
    configuration used by benchmarks and by [--cache-mb 0]. *)

val enabled : t -> bool

val find : t -> int -> Hopi_twohop.Label_codec.t option
(** [find t key] returns the cached encoded label set and promotes the
    entry to most-recently-used.  Counts a hit or a miss. *)

val add : t -> int -> Hopi_twohop.Label_codec.t -> unit
(** Insert (or replace) the entry, evicting least-recently-used entries of
    the same shard as needed.  The cache takes ownership of nothing: the
    caller must not mutate [value] afterwards. *)

val remove : t -> int -> bool
(** [remove t key] evicts one entry, returning whether it was present.
    Size accounting is adjusted exactly as for an LRU eviction, and the
    [hopi_serve_cache_invalidations_total] counter (not the eviction
    counter) records it.  Used by the generational serving layer to
    reclaim entries whose node was dirtied by churn; untouched entries are
    never scanned, so invalidation cost is proportional to the churn, not
    the cache. *)

val bytes : t -> int
(** Current accounted size across all shards. *)

val entries : t -> int

val capacity_bytes : t -> int

val entry_cost : Hopi_twohop.Label_codec.t -> int
(** The bytes an entry with this payload is charged — exposed so tests can
    account for the eviction bound exactly. *)

(** {1 Metric handles}

    The process-wide cache counters (all caches share them), exposed so
    benchmarks and tests can read deltas without going through
    {!Hopi_obs.Registry.find}. *)

val hits : unit -> Hopi_obs.Counter.t

val misses : unit -> Hopi_obs.Counter.t

val evictions : unit -> Hopi_obs.Counter.t

val invalidations : unit -> Hopi_obs.Counter.t
