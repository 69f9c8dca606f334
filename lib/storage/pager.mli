(** Page manager with a bounded buffer pool over write-once page files.

    Pages live in a {!Vfs} file (a real file, or a private in-memory file
    system for the [Memory] backend) with an LRU-evicted write-back cache
    in front.  Durability discipline (see DESIGN.md, Storage durability):

    - every page carries a CRC-32 header ({!Page.stamp}) written at
      write-back and verified on every cache miss — a flipped byte
      anywhere in a persisted page raises [Storage_error (Checksum _)];
    - a page file is written once: {!create} writes [path.tmp]
      ({!Vfs.tmp_path}), and {!commit} publishes it — write back, fsync,
      rename over [path] ({!Vfs.publish}).  The rename is the commit
      point, so a crash at any point leaves [path] holding its previous
      file or the new one in full, and a reader that has the previous
      file open keeps reading it;
    - a published file is never written again: after {!commit} the pager
      still reads, but every write-side entry point raises
      [Invalid_argument], and {!open_existing} / {!open_vfs} /
      {!open_shared} return read-only views.

    [fsync:false] trades power-loss durability for speed: publication is
    still a rename (process crashes still leave the old or the new file)
    but nothing is synced. *)

type backend =
  | Memory  (** pages live in a private in-memory file system *)
  | File of string  (** pages are published to this file by {!commit} *)

type t

(** A shared, sharded-lock, read-only page pool for immutable snapshots:
    a {!Hopi_util.Lru} of page images, each costing one page.

    One pool is probed by every domain (and every generation) serving
    reads from committed store files, so a page any domain faulted in is
    warm for all of them — the fix for the cold-read anti-scaling of
    per-domain private pools (see DESIGN.md, Shared read path).  Entries
    are immutable verified page images: eviction drops the table
    reference only, so readers holding a page across an eviction keep a
    valid image.  (A writing pager's private pool is not an [Lru]: it
    pins pages and writes dirty ones back to the temp file.)  Metrics:
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
  fsyncs : int;
      (** sync points issued: the file and its directory at publication
          (0 when [fsync:false]) *)
}

val create : ?pool_pages:int -> ?fsync:bool -> backend -> t
(** A pager writing a new page file.  [pool_pages] (default 256) bounds
    the buffer pool; [fsync] (default [true]) controls whether
    publication syncs.  A [File path] backend writes [path.tmp]
    (truncating one left by an interrupted publication); an existing
    file at [path] stays readable, unchanged, until {!commit} renames
    the new file over it.  Use {!open_existing} to read a published
    file. *)

val create_vfs : ?pool_pages:int -> ?fsync:bool -> vfs:Vfs.t -> string -> t
(** Like [create (File path)] but on an explicit {!Vfs} (used by the
    fault-injection tests). *)

val open_existing : ?pool_pages:int -> string -> t
(** Open a published page file as a read-only view with a private buffer
    pool: {!read}/{!pin}/{!unpin}, the introspection functions and
    {!close} work; {!alloc}, {!mark_dirty} and {!commit} raise
    [Invalid_argument].
    @raise Storage_error.Storage_error — [File_not_found] on missing
    files, [Truncated] on a file that is not a whole number of pages,
    [Io] on an unreadable one. *)

val open_vfs : ?pool_pages:int -> vfs:Vfs.t -> string -> t
(** Like {!open_existing} on an explicit {!Vfs}. *)

val open_shared : pool:Read_pool.t -> string -> t
(** Open a committed page file as a {e read-only shared view}: page
    fetches probe (and fill) [pool] instead of a private buffer pool, so
    any number of domains sharing one pager — or several pagers over one
    pool — serve from one warm set of pages.  Miss reads are serialised
    per pager (the underlying file handle is not positionally safe across
    domains) and CRC-verified before they enter the pool, exactly like a
    private-pool miss.

    The returned pager accepts {!read}/{!pin}/{!unpin}, the
    introspection functions and {!close}; every write-side operation
    ({!alloc}, {!mark_dirty}, {!commit}) raises
    [Invalid_argument].  {!close} releases the file and drops exactly
    this pager's pages from the pool.
    @raise Storage_error.Storage_error as {!open_existing}. *)

val open_shared_vfs : vfs:Vfs.t -> pool:Read_pool.t -> string -> t
(** {!open_shared} on an explicit {!Vfs} (fault-injection tests). *)

val alloc : t -> int
(** Append a zeroed page; returns its id.  Pages are never freed: stores
    are written once (see {!Btree}), and a rebuilt store is a new file.
    @raise Invalid_argument unless the pager came from {!create} and has
    not been committed. *)

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
(** @raise Invalid_argument as {!alloc}. *)

val commit : t -> unit
(** Publish the file: write every dirty page back to [path.tmp], fsync
    it, rename it over [path] and (with [fsync]) fsync the directory.  A
    crash anywhere inside [commit] leaves [path] holding either the
    previous file or the new one, never a mixture.  Afterwards the pager
    reads the published file and rejects writes; a second [commit] is a
    no-op.
    @raise Invalid_argument on a read-only view. *)

val verify_pages : t -> int list
(** Checksum-verify every page image directly from the backing file
    (bypassing the cache); returns the ids of corrupt pages.  Used by
    [hopi verify-store]. *)

val stats : t -> stats
(** For a shared read-only view, [cache_hits]/[cache_misses]/[evictions]
    report the {e pool-wide} numbers (the pool is the cache) and the
    write-side fields are 0; [disk_reads] is this pager's own. *)

val close : t -> unit
(** Release the backing file, first {!commit}ting a pager that is still
    writing.  A shared read-only view also evicts its pages from the
    shared pool. *)

val size_bytes : t -> int
(** Total size of the page store. *)
