(** Page manager over write-once page files, with every read served
    through a {!Read_pool}.

    Pages live in a {!Vfs} file (a real file, or a private in-memory file
    system for the [Memory] backend).  A writing pager hands out page ids
    ({!alloc}) and takes each finished page once ({!write}), writing it
    straight to the file.  Every read, while writing or after, goes
    through a {!Read_pool} -- the pager's own one-shard pool, or one
    shared with other pagers ({!open_shared}).  Durability discipline (see DESIGN.md,
    Storage durability):

    - every page carries a CRC-32 header ({!Page.stamp}) written by
      {!write} and verified on every pool miss -- a flipped byte anywhere
      in a persisted page raises [Storage_error (Checksum _)];
    - a page file is written once: {!create} writes [path.tmp]
      ({!Vfs.tmp_path}), and {!commit} publishes it -- fsync, rename over
      [path] ({!Vfs.publish}).  The rename is the commit point, so a
      crash at any point leaves [path] holding its previous file or the
      new one in full, and a reader that has the previous file open keeps
      reading it;
    - a published file is never written again: after {!commit} the pager
      still reads, but every write-side entry point raises
      [Invalid_argument], and {!open_existing} and
      {!open_shared} return read-only views.

    [fsync:false] trades power-loss durability for speed: publication is
    still a rename (process crashes still leave the old or the new file)
    but nothing is synced. *)

type backend =
  | Memory  (** pages live in a private in-memory file system *)
  | File of string  (** pages are published to this file by {!commit} *)

type t

(** The page cache: a sharded-lock {!Hopi_util.Lru} of verified page
    images, each costing one page.  Every pager reads through one.

    A serving pool is probed by every domain (and every generation)
    reading committed store files, so a page any domain faulted in is
    warm for all of them -- the fix for the cold-read anti-scaling of
    per-domain private pools (see DESIGN.md, Shared read path).  A pager
    made by {!create} or {!open_existing} gets a private
    one-shard pool of [pool_pages].  Entries are immutable verified page
    images: eviction drops the table reference only, so readers holding
    a page across an eviction keep a valid image.  Metrics, summed over
    every pool in the process: [hopi_storage_shared_pool_hits_total] /
    [_misses_total] / [_evictions_total] and the
    [hopi_storage_shared_pool_pages] gauge. *)
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
  (** [pages] (at least 1) is the total page budget, split across shards
      as {!Hopi_util.Lru.create} does.  [shards] (default 16) is capped at
      the largest power of two ≤ [pages], since each shard keeps at least
      one page, and rounded up to a power of two: a pool never holds more
      than [max 1 pages] pages. *)

  val stats : t -> stats
  (** This pool's own numbers (the metric series above are process-wide). *)
end

type stats = {
  pages : int;  (** pages allocated *)
  pool : Read_pool.stats;
      (** the pool this pager reads through: pool-wide numbers when the
          pool is shared *)
  disk_reads : int;  (** this pager's pool misses, each a page read *)
  disk_writes : int;
  fsyncs : int;
      (** sync points issued: the file and its directory at publication
          (0 when [fsync:false]) *)
}

val create : ?pool_pages:int -> ?fsync:bool -> backend -> t
(** A pager writing a new page file.  [pool_pages] (default 256) sizes
    the private pool that reads through this pager go through; [fsync]
    (default [true]) controls whether publication syncs.  A [File path]
    backend writes [path.tmp] (truncating one left by an interrupted
    publication); an existing file at [path] stays readable, unchanged,
    until {!commit} renames the new file over it.  Use {!open_existing} to read a published
    file. *)

val create_vfs : ?pool_pages:int -> ?fsync:bool -> vfs:Vfs.t -> string -> t
(** Like [create (File path)] but on an explicit {!Vfs} (used by the
    fault-injection tests). *)

val open_shared : ?vfs:Vfs.t -> pool:Read_pool.t -> string -> t
(** Open a committed page file (on [vfs], default {!Vfs.real}) as a {e read-only view} whose page
    fetches probe (and fill) [pool], so any number of domains sharing one
    pager -- or several pagers over one pool -- serve from one warm set
    of pages.  A miss reads the raw page under the pager's I/O lock (the
    underlying file handle is not positionally safe across domains),
    then CRC-verifies it outside the lock before it enters the pool.
    Domains missing on one page at once each read it, and each read
    counts in [hopi_storage_page_reads_total]; a corrupt page raises
    before it is pooled.

    The returned pager accepts {!read}, the introspection functions and
    {!close}; every write-side operation ({!alloc}, {!write}, {!commit})
    raises [Invalid_argument].  {!close} releases the file and drops
    exactly this pager's pages from the pool.
    @raise Storage_error.Storage_error — [File_not_found] on missing
    files, [Truncated] on a file that is not a whole number of pages,
    [Io] on an unreadable one. *)

val open_existing : ?pool_pages:int -> ?vfs:Vfs.t -> string -> t
(** {!open_shared} over a private one-shard {!Read_pool} of [pool_pages]
    (default 256). *)

val alloc : t -> int
(** Reserve the next page id.  The caller builds the page and hands it
    to {!write}; until then it reads as zeros.  Pages are never freed:
    stores are written once (see {!Row_table}), and a rebuilt store is a new
    file.
    @raise Invalid_argument unless the pager came from {!create} and has
    not been committed. *)

val n_pages : t -> int

val write : t -> int -> Page.t -> unit
(** [write t id page]: stamp [page]'s checksum header and write it as
    page [id] of [path.tmp].  Build [page] fresh ({!Page.create}) from
    {!Page.payload_off} up -- the header below belongs to the pager --
    and do not touch it afterwards.  Each allocated page is written
    once, before {!commit}; a pooled image of [id] read before the write
    is dropped, so later reads see the written bytes.
    @raise Invalid_argument as {!alloc}, or when [id] was not allocated. *)

val read : t -> int -> Page.t
(** Fetch a page through the pager's {!Read_pool}.  The returned image
    is shared with every other reader of the pool and must not be
    mutated.
    @raise Storage_error.Storage_error [(Checksum _)] when the on-disk
    image fails verification. *)

val commit : t -> unit
(** Publish the file: fsync [path.tmp], rename it over [path] and (with
    [fsync]) fsync the directory.  A crash anywhere inside [commit]
    leaves [path] holding either the previous file or the new one, never
    a mixture.  Afterwards the pager reads the published file and
    rejects writes.
    @raise Invalid_argument as {!alloc}. *)

val verify_pages : t -> int list
(** Checksum-verify every page image directly from the backing file
    (bypassing the pool); returns the ids of corrupt pages.  Used by
    [hopi verify-store]. *)

val stats : t -> stats

val close : t -> unit
(** Release the backing file, first {!commit}ting a pager that is still
    writing, and drop this pager's pages from its pool. *)

val size_bytes : t -> int
(** Total size of the page store. *)
