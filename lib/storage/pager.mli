(** Page manager with a bounded buffer pool and crash-safe storage.

    Pages live in a {!Vfs} file (a real file, or a private in-memory file
    system for the [Memory] backend) with an LRU-evicted write-back cache
    in front.  Durability discipline (see DESIGN.md, Storage durability):

    - every page carries a CRC-32 header ({!Page.stamp}) written at
      write-back and verified on every cache miss — a flipped byte
      anywhere in a persisted page raises [Storage_error (Checksum _)];
    - all writes between two {!commit}s form a transaction protected by a
      rollback {!Journal}: the original image of any committed page is
      journaled and fsynced before the page is first overwritten, so a
      crash at *any* point rolls back to the last committed state;
    - {!commit} is the atomic save: journal, write back, fsync the store,
      then delete the journal (the commit point);
    - opening a store ({!open_existing} / {!open_vfs}) first recovers from
      a hot journal left by a crash.

    Stores are written once: a cover or closure store appends fresh pages
    and commits them in one transaction, so {!alloc} always appends and no
    page is freed.  Overwriting committed pages is still fully supported —
    a {!Manifest} commit rewrites its one committed page, and any caller
    may run a raw page transaction ({!read}, mutate, {!mark_dirty},
    {!commit}) — and the journal is what makes those overwrites atomic.

    [fsync:false] trades power-loss durability for speed: the journal is
    still written (process crashes still recover) but nothing is synced. *)

type backend =
  | Memory  (** pages live in a private in-memory file system *)
  | File of string  (** pages are stored in this file (created/truncated) *)

type t

(** A shared, sharded-lock, read-only page pool for immutable snapshots:
    a {!Hopi_util.Lru} of page images, each costing one page.

    One pool is probed by every domain (and every generation) serving
    reads from committed store files, so a page any domain faulted in is
    warm for all of them — the fix for the cold-read anti-scaling of
    per-domain private pools (see DESIGN.md, Shared read path).  Entries
    are immutable verified page images: eviction drops the table
    reference only, so readers holding a page across an eviction keep a
    valid image.  (A writable pager's private pool is not an [Lru]: it
    pins pages and writes dirty ones back under the journal.)  Metrics:
    [hopi_storage_shared_pool_hits_total] / [_misses_total] /
    [_evictions_total] and the [hopi_storage_shared_pool_pages] gauge — a
    series deliberately disjoint from the private buffer-pool counters,
    so serving reads and writer/builder traffic attribute separately. *)
module Read_pool : sig
  type t

  type stats = {
    capacity : int;  (** page budget across all shards *)
    resident : int;  (** pages currently held *)
    hits : int;
    misses : int;
    evictions : int;
  }

  val create : ?shards:int -> pages:int -> unit -> t
  (** [shards] (default 16) is rounded up to a power of two; [pages] is
      the total page budget, split across shards as
      {!Hopi_util.Lru.create} does (each shard keeps at least one page, so
      tiny budgets round up to one per shard). *)

  val stats : t -> stats
  (** This pool's own numbers (the metric series above are process-wide). *)
end

type stats = {
  pages : int;  (** pages allocated *)
  cache_hits : int;
  cache_misses : int;
  evictions : int;
  disk_reads : int;
  disk_writes : int;
  fsyncs : int;  (** sync points issued (0 when [fsync:false]) *)
  journaled_pages : int;  (** original images saved to the rollback journal *)
}

val create : ?pool_pages:int -> ?fsync:bool -> backend -> t
(** [pool_pages] (default 256) bounds the buffer pool; [fsync] (default
    [true]) controls whether sync points hit the disk.  A [File] backend
    is created or truncated (any stale journal is deleted); use
    {!open_existing} to reopen a page file. *)

val create_vfs : ?pool_pages:int -> ?fsync:bool -> vfs:Vfs.t -> string -> t
(** Like [create (File path)] but on an explicit {!Vfs} (used by the
    fault-injection tests). *)

val open_existing : ?pool_pages:int -> ?fsync:bool -> string -> t
(** Open a page file written earlier, rolling back a hot journal first if
    the last session crashed mid-transaction.
    @raise Storage_error.Storage_error — [File_not_found] on missing
    files, [Truncated] on a file that is not a whole number of pages,
    [Journal_corrupt]/[Io] on unrecoverable journals. *)

val open_vfs : ?pool_pages:int -> ?fsync:bool -> vfs:Vfs.t -> string -> t
(** Like {!open_existing} on an explicit {!Vfs}. *)

val open_shared : ?fsync:bool -> pool:Read_pool.t -> string -> t
(** Open a committed page file as a {e read-only shared view}: page
    fetches probe (and fill) [pool] instead of a private buffer pool, so
    any number of domains sharing one pager — or several pagers over one
    pool — serve from one warm set of pages.  Miss reads are serialised
    per pager (the underlying file handle is not positionally safe across
    domains) and CRC-verified before they enter the pool, exactly like a
    private-pool miss.  A hot journal is still rolled back first.

    The returned pager accepts {!read}/{!pin}/{!unpin}, the
    introspection functions and {!close}; every write-side operation
    ({!alloc}, {!mark_dirty}, {!flush}, {!commit}) raises
    [Invalid_argument].  {!close} releases the file and drops exactly
    this pager's pages from the pool.
    @raise Storage_error.Storage_error as {!open_existing}. *)

val open_shared_vfs : ?fsync:bool -> vfs:Vfs.t -> pool:Read_pool.t -> string -> t
(** {!open_shared} on an explicit {!Vfs} (fault-injection tests). *)

val read_only : t -> bool
(** Was this pager opened with {!open_shared}? *)

val alloc : t -> int
(** Append a zeroed page; returns its id.  Pages are never freed: stores
    are written once (see {!Btree}), and a rebuilt store is a new file. *)

val n_pages : t -> int

val read : t -> int -> Page.t
(** Fetch a page (through the cache).  The caller may mutate the returned
    bytes from {!Page.payload_off} up (the header below it belongs to the
    pager) but must call {!mark_dirty} afterwards, and must not touch the
    pager (alloc/read of other pages) between mutation and {!mark_dirty} —
    use {!pin} when holding a page across other pager calls.
    @raise Storage_error.Storage_error [(Checksum _)] when the on-disk
    image fails verification. *)

val pin : t -> int -> Page.t
(** Like {!read}, but the page cannot be evicted until {!unpin}.  Pins
    nest. *)

val unpin : t -> int -> unit

val mark_dirty : t -> int -> unit

val flush : t -> unit
(** Write back all dirty pages (under the journal discipline).  This is
    *not* a commit point: a crash after [flush] still rolls back to the
    last {!commit}. *)

val commit : t -> unit
(** Atomically make the current state the new committed state: journal the
    originals of every dirty committed page, fsync the journal, write all
    dirty pages back, fsync the store, then delete the journal.  A crash
    anywhere inside [commit] recovers to either the previous or the new
    committed state, never a mixture. *)

val verify_pages : t -> int list
(** Checksum-verify every page image directly from the backing file
    (bypassing the cache); returns the ids of corrupt pages.  Used by
    [hopi verify-store]. *)

val stats : t -> stats
(** For a shared read-only view, [cache_hits]/[cache_misses]/[evictions]
    report the {e pool-wide} numbers (the pool is the cache) and the
    write-side fields are 0; [disk_reads] is this pager's own. *)

val close : t -> unit
(** {!commit} and release the backing file.  A shared read-only view has
    nothing to commit: it releases the file and evicts its pages from the
    shared pool. *)

val size_bytes : t -> int
(** Total size of the page store. *)
