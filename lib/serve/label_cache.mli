(** A sharded, size-bounded LRU cache for label sets: the
    {!Hopi_util.Lru} instance whose entries are encoded label sets charged
    their bytes.

    The serving layer's hot path is fetching [Lin]/[Lout] label sets of the
    same nodes over and over (real query workloads are heavily skewed), and
    every uncached fetch is a B+-tree range scan through the pager — page
    cache probes, CRC verification on misses, per-row closure calls.  This
    cache keeps the materialised label sets in memory — in their
    delta-encoded {!Hopi_twohop.Label_codec} form, a few bytes per row —
    so a hot fetch is one hash probe.

    Concurrency and policy are the [Lru]'s: per-shard mutexes, so domains
    serving disjoint keys rarely contend, and exact LRU per shard within
    its slice of [capacity_bytes].  An entry is charged {!entry_cost}, and
    one costlier than its shard's slice is not cached.  Entries are shared
    with every reader of the key and must be treated as read-only.

    Metrics (registered in [Hopi_obs.Registry]):
    [hopi_serve_cache_hits_total], [hopi_serve_cache_misses_total],
    [hopi_serve_cache_evictions_total],
    [hopi_serve_cache_invalidations_total], [hopi_serve_cache_bytes],
    [hopi_serve_cache_entries]. *)

type t

type dir = Hopi_storage.Cover_store.dir = Lin | Lout

val key : ?version:int -> dir -> int -> int
(** [key ?version dir node] packs a label-set identity into the integer
    key space: direction in the low bit, the node id in the next 31 bits,
    [version] (default 0) in the 31 bits above.  Versions let several
    generations of the same node's labels coexist in one shared cache — a
    snapshot opened against generation [g] asks for the key of the version
    its store file actually holds, so an entry cached by an older
    generation is simply never requested again once the node's labels
    change (see [Hopi_serve.Generation]).  With the default version this
    is exactly the key {!Snapshot} has always used.
    @raise Invalid_argument when [node] or [version] is negative or not
    below 2{^31}: the key would otherwise alias another one. *)

val create : ?shards:int -> capacity_bytes:int -> unit -> t
(** [shards] (default 16) is rounded up to a power of two;
    [capacity_bytes] is the total budget across all shards
    ({!Hopi_util.Lru.create} splits it).  [capacity_bytes <= 0] creates
    a disabled cache: {!find} always misses (without counting metrics)
    and {!add} is a no-op — the cold-path configuration used by
    benchmarks and by [--cache-mb 0]. *)

val enabled : t -> bool

val find : t -> int -> Hopi_twohop.Label_codec.t option
(** {!Hopi_util.Lru.find}: promotes the entry; counts a hit or a miss. *)

val add : t -> int -> Hopi_twohop.Label_codec.t -> unit
(** {!Hopi_util.Lru.add}: insert or replace, evicting from the shard's
    LRU end.  The caller must not mutate the value afterwards. *)

val remove : t -> int -> bool
(** Drop one entry, returning whether it was present; counted as an
    invalidation, not an eviction.  The generational serving layer uses
    it to reclaim entries whose node churn dirtied, so invalidation costs
    in proportion to the churn, not the cache. *)

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
