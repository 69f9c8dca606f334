(** A sharded, cost-bounded LRU cache over [int] keys and immutable values:
    the one mechanism behind both caches, the page pool every pager reads
    through (every page costs 1) and the label cache (an entry costs its
    bytes).

    A splitmix finaliser spreads keys over a power-of-two number of
    shards, each with its own mutex.  The policy is exact LRU per shard:
    {!find} promotes, {!add} inserts at the front and evicts from the
    back until the shard is within its slice of the budget.  Values are
    shared with every reader and must not be mutated after {!add}.

    Nothing here records process-wide metrics: every mutation returns a
    {!delta} and each cache counts its own {!val-stats}, so callers keep
    their counters and gauges in step. *)

type 'a t

val create : ?shards:int -> capacity:int -> cost:('a -> int) -> unit -> 'a t
(** [shards] (default 16) is rounded up to a power of two.  [capacity],
    in units of [cost], is split across the shards: the first
    [capacity mod shards] get one unit more, and every shard gets at
    least one.  [capacity <= 0] creates a disabled cache: lookups miss
    without counting and mutations do nothing. *)

val enabled : 'a t -> bool

type delta = { entries : int; cost : int; evicted : int }
(** What a mutation did: the net change in resident entries and cost
    (negative when it shrank the cache) and how many entries it evicted
    from an LRU end. *)

val find : 'a t -> int -> 'a option
(** Promotes the entry to most recently used; counts a hit or a miss. *)

val peek : 'a t -> int -> 'a option
(** Like {!find}, but neither promotes nor counts. *)

val add : 'a t -> int -> 'a -> delta
(** Insert at the front, replacing any entry under the key (that is not
    an eviction), then evict from the LRU end until the shard fits its
    slice.  A value costlier than the whole slice is refused: caching it
    would evict everything else and still overflow. *)

val remove : 'a t -> int -> delta

val remove_if : 'a t -> (int -> bool) -> delta
(** Drop every entry whose key satisfies the predicate.  Walks every
    shard: for rare bulk reclamation, not the query path. *)

type stats = {
  capacity : int;  (** the slices summed; 0 when disabled *)
  cost : int;  (** resident cost *)
  entries : int;
  hits : int;
  misses : int;
  evictions : int;
}

val stats : 'a t -> stats
(** This cache's own numbers, summed over the shards. *)
