(** Zero-downtime serving over a mutating index: generational store swap.

    The paper's incremental maintenance (Section 6) mutates an in-memory
    index, while {!Snapshot} serves a frozen store file — this module
    closes the gap.  A [Generation.t] owns both sides:

    - the {e writer side}: the live {!Hopi_core.Hopi.t}, mutated through
      {!apply} (single-writer; every mutation is tracked node-by-node via
      [Cover.set_on_label_change]);
    - the {e serving side}: a family of immutable store files named by a
      {!Hopi_storage.Manifest}, each wrapped in a refcounted {!Snapshot}.

    Readers call {!acquire}/{!release} (or {!with_snapshot}) around each
    batch; {!flip} persists the accumulated churn as generation [N+1],
    commits the manifest, and atomically redirects subsequent acquisitions
    — in-flight batches keep their generation-[N] snapshot and drain
    undisturbed, and [N] stays open as the {!rollback} target.  Serving
    never pauses: the heavy store write happens before the swap, and the
    swap itself is a pointer update under a mutex held for nanoseconds.

    One {!Label_cache} is shared across all generations.  Entry keys carry
    the {e version} of the node's labels ({!Label_cache.key}): a flip
    bumps the version of exactly the nodes the churn dirtied, evicts their
    old entries, and leaves every untouched entry shared between the old
    and new snapshots — no full-cache flush, warm hit rates across flips.
    Correctness never depends on eviction: a stale version is simply never
    requested again.

    Metrics: [hopi_serve_generation_live], [hopi_serve_generation_lag_ops],
    [hopi_serve_generations_retained], [hopi_serve_generation_flip_last_ns],
    [hopi_serve_generation_flip_duration_ns],
    [hopi_serve_generation_flips_total],
    [hopi_serve_generation_rollbacks_total],
    [hopi_serve_generation_invalidated_total]. *)

type t

val create :
  ?pool_pages:int ->
  ?cache_mb:int ->
  ?retain:int ->
  ?fsync:bool ->
  base:string ->
  Hopi_core.Hopi.t ->
  t
(** Open (or found) the generation family rooted at the store path
    [base].  If a manifest exists it is crash-recovered and serving starts
    from its live generation; otherwise generation 0 is the existing store
    file at [base], or — when no file exists — the given index persisted
    there, and a fresh manifest is committed.  [retain] (default 2) is how
    many generations beyond the live/rollback pair keep their store files
    on disk.  Every generation is a plain (distance-free) cover store.
    [pool_pages]
    (default 4096) sizes the {e one} shared read-only page pool every
    generation's snapshot serves from, which bounds their page memory
    together.  A flip writes every row into a new store file, attached
    under a fresh pool tag, so a new generation starts with no pooled
    pages: what carries over a flip is the label cache.  [cache_mb]
    (default 64) sizes the one {!Label_cache} they share.  Generation numbers double as
    cache-key versions, so a family serves at most 2{^31} generations
    ({!Label_cache.key} refuses larger ones rather than alias them).  The
    caller must not mutate the index except through {!apply}. *)

(** {1 Reader side} *)

val acquire : t -> Snapshot.t
(** Pin and return the live generation's snapshot.  The returned snapshot
    stays valid — and its store file open — until the matching
    {!release}, regardless of intervening flips.  Safe from any domain. *)

val release : t -> Snapshot.t -> unit
(** Unpin a snapshot obtained from {!acquire}.  A drained, unprotected
    old generation is closed here (and its file deleted once it falls out
    of the retain window). *)

val with_snapshot : t -> (Snapshot.t -> 'a) -> 'a
(** [acquire]/[release] around [f], exception-safe. *)

(** {1 Writer side} *)

type op =
  | Add_link of int * int
  | Del_link of int * int
  | Add_doc of { name : string; xml : string }
  | Del_doc of string
  | Add_element of { doc : int; parent : int; tag : string }
  | Del_subtree of int
      (** The churn vocabulary of the serve protocol — the maintenance
          entry points of Section 6 (insertions, separating and general
          deletions) addressable from a text line. *)

val parse_op : string -> (op, string) result
(** Parse one protocol line: [add-link U V], [del-link U V],
    [add-doc NAME XML...], [del-doc NAME], [add-element DOC PARENT TAG],
    [del-subtree E]. *)

val apply_to_index : Hopi_core.Hopi.t -> op -> (string, string) result
(** Apply one operation to a bare index — the exact semantics {!apply}
    uses, exposed so a differential harness can replay a recorded
    sequence against an offline twin.  [Ok] carries a human-readable
    description (e.g. which delete path Theorem 2/3 chose), [Error] a
    reason (unknown target, duplicate name, XML parse failure); failed
    operations leave the index unchanged. *)

val apply : t -> op -> (string, string) result
(** Apply churn to the writer index for the {e next} generation.  Serving
    is unaffected until {!flip}.  Serialised with other writers and with
    {!flip}/{!rollback}. *)

(** {1 Generation control} *)

type flip_stats = {
  generation : int;  (** the generation now live *)
  duration_ns : int;
  dirtied : int;  (** distinct nodes whose labels the churn touched *)
  invalidated : int;  (** label-cache entries evicted for those nodes *)
}

val flip : t -> flip_stats
(** Persist the writer index as generation [tip + 1], commit the
    manifest, bump the dirtied nodes' cache versions (evicting their old
    entries), and swap the live snapshot.  Readers already inside a batch
    finish on the old generation; new acquisitions get the new one.  The
    previous live generation is retained open for {!rollback}. *)

val rollback : t -> int
(** Swap serving back to the pre-flip generation (manifest [previous]);
    returns the now-live generation.  Serving-side only: the writer index
    keeps its churn, and the next {!flip} publishes it as a fresh
    generation.  A second rollback swaps forward again.
    @raise Invalid_argument if the target generation is no longer open
    (cannot happen through this module's own retention rules). *)

(** {1 Introspection} *)

val live : t -> int

val previous : t -> int

val tip : t -> int

val pending_ops : t -> int
(** Successfully applied operations not yet flipped — the generation lag,
    also exported as [hopi_serve_generation_lag_ops]. *)

val retained : t -> int
(** Generations currently open (live, rollback target, and any still
    pinned by in-flight readers). *)

val cache : t -> Label_cache.t

val close : t -> unit
(** Close every retained snapshot.  Callers must have drained readers. *)
