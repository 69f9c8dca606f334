module Counter = Hopi_obs.Counter
module Gauge = Hopi_obs.Gauge
module Registry = Hopi_obs.Registry

let log = Logs.Src.create "hopi.storage.pager" ~doc:"Write-once page files"

module Log = (val Logs.src_log log : Logs.LOG)

(* Process-wide counters across all pager instances; the per-instance
   [stats] record below stays the source of truth for a single store. *)

let m_page_reads =
  Registry.counter "hopi_storage_page_reads_total"
    ~help:"Pages read from the backing store"

let m_page_writes =
  Registry.counter "hopi_storage_page_writes_total"
    ~help:"Pages written to the backing store (each page of a file once)"

let m_pages_allocated =
  Registry.counter "hopi_storage_pages_allocated_total"
    ~help:"Pages appended to page stores (stores are written once, so no page is ever reused)"

let m_checksum_failures =
  Registry.counter "hopi_storage_checksum_failures_total"
    ~help:"Pages rejected because their CRC-32 header failed verification"

let m_fsyncs =
  Registry.counter "hopi_storage_fsyncs_total"
    ~help:"Sync points issued (store file and directory fsyncs at publication)"

let m_commits =
  Registry.counter "hopi_storage_commits_total"
    ~help:"Page files published (written under a temp name, synced, renamed into place)"

(* Every page read goes through a [Read_pool], so these series cover
   all of them: serving snapshots, builders and tools alike.  The names
   predate the single pool. *)

let m_shared_hits =
  Registry.counter "hopi_storage_shared_pool_hits_total"
    ~help:"Read-pool hits (every pager's page reads, all domains)"

let m_shared_misses =
  Registry.counter "hopi_storage_shared_pool_misses_total"
    ~help:"Read-pool misses (each one is a page read off the store)"

let m_shared_evictions =
  Registry.counter "hopi_storage_shared_pool_evictions_total"
    ~help:"Pages evicted from read pools to stay within budget"

let g_shared_pages =
  Registry.gauge "hopi_storage_shared_pool_pages"
    ~help:"Pages resident across all read pools"

type backend = Memory | File of string

(* {1 Read pool}

   A {!Hopi_util.Lru} of verified page images, one unit each: private to
   one pager, or shared by every domain and snapshot generation reading
   immutable store files.
   Eviction only drops the table reference: a reader holding a page keeps
   a valid image, which is what makes lock-free page *use* safe under a
   locked page *lookup*.  Keys pack (tag, page id), a tag per attached
   pager, so several files share one pool and closing a pager drops
   exactly its pages. *)

module Read_pool = struct
  module Lru = Hopi_util.Lru

  type t = { lru : Page.t Lru.t; next_tag : int Atomic.t }

  type stats = { capacity : int; resident : int; hits : int; misses : int; evictions : int }

  (* at most as many shards as pages, so [Lru]'s one-page-per-shard floor
     never lifts the pool above its budget (a budget below one page still
     gets one page) *)
  let create ?(shards = 16) ~pages () =
    let pages = max 1 pages in
    let rec floor_pow2 k = if 2 * k > pages then k else floor_pow2 (2 * k) in
    { lru = Lru.create ~shards:(min shards (floor_pow2 1)) ~capacity:pages ~cost:(fun _ -> 1) ();
      next_tag = Atomic.make 0 }

  let fresh_tag t = Atomic.fetch_and_add t.next_tag 1

  (* page ids are i32 in every tree, so 32 bits of id is generous *)
  let key_of ~tag id = (tag lsl 32) lor id

  let tag_of key = key lsr 32

  let note (d : Lru.delta) =
    if d.entries <> 0 then Gauge.add g_shared_pages d.entries;
    if d.evicted > 0 then Counter.add m_shared_evictions d.evicted

  let find t key =
    let r = Lru.find t.lru key in
    Counter.incr (if Option.is_some r then m_shared_hits else m_shared_misses);
    r

  let add t key page = note (Lru.add t.lru key page)

  let remove t key = note (Lru.remove t.lru key)

  (* reclaim every page a closing pager cached *)
  let drop_tag t tag = note (Lru.remove_if t.lru (fun key -> tag_of key = tag))

  let stats t =
    let s = Lru.stats t.lru in
    { capacity = s.capacity; resident = s.entries; hits = s.hits; misses = s.misses;
      evictions = s.evictions }
end

(* A [Writing] pager hands out page ids and writes each finished page to
   [Vfs.tmp_path path] until [commit] publishes that file over [path];
   every other pager is [Reading].  Reads in either mode go through the
   pager's [Read_pool] under its tag.  [io_mu] serialises a writing
   pager's file I/O, so a read never sees a page half written.  A
   published file is never written, and a read is one positioned [Vfs]
   read, so a [Reading] pager's misses take no lock at all.  Either way
   the CRC check and the pool add run outside the lock.  [writes] counts page writes; a write bumps it
   before dropping the pooled image, and a miss re-reads it after
   pooling, so a raced read cannot leave pooled an image a write
   replaced.  [written] flags each allocated page once written, so
   [commit] can refuse to publish a page nobody wrote. *)
type mode = Writing of string | Reading

type t = {
  mutable mode : mode;
  pool : Read_pool.t;
  tag : int;
  io_mu : Mutex.t;
  vfs : Vfs.t;
  file : Vfs.file;
  do_fsync : bool;
  mutable next_page : int;
  mutable written : Bytes.t;
  disk_reads : int Atomic.t;
  writes : int Atomic.t;
  mutable fsyncs : int;
}

let mk ~mode ~pool ~fsync ~vfs ~file ~next_page =
  { mode; pool; tag = Read_pool.fresh_tag pool; io_mu = Mutex.create (); vfs; file;
    do_fsync = fsync; next_page; written = Bytes.empty; disk_reads = Atomic.make 0;
    writes = Atomic.make 0; fsyncs = 0 }

(* the pool a pager reads through when nobody shares one with it *)
let private_pool pool_pages = Read_pool.create ~shards:1 ~pages:pool_pages ()

(* a stale temp file from an interrupted publication is truncated away;
   [path] itself is untouched until [commit] *)
let create_vfs ?(pool_pages = 256) ?(fsync = true) ~vfs path =
  let file = vfs.Vfs.open_file (Vfs.tmp_path path) ~create:true in
  mk ~mode:(Writing path) ~pool:(private_pool pool_pages) ~fsync ~vfs ~file ~next_page:0

let create ?pool_pages ?fsync backend =
  match backend with
  | Memory -> create_vfs ?pool_pages ?fsync ~vfs:(Vfs.memory ()) "mem.db"
  | File path -> create_vfs ?pool_pages ?fsync ~vfs:Vfs.real path

let open_shared ?(vfs = Vfs.real) ~pool path =
  let file = vfs.Vfs.open_file path ~create:false in
  let size = file.Vfs.size () in
  if size mod Page.size <> 0 then begin
    file.Vfs.close ();
    Storage_error.raise_error
      (Truncated (Printf.sprintf "%s: %d bytes is not a whole number of pages" path size))
  end;
  mk ~mode:Reading ~pool ~fsync:false ~vfs ~file ~next_page:(size / Page.size)

let open_existing ?(pool_pages = 256) ?vfs path =
  open_shared ?vfs ~pool:(private_pool pool_pages) path

let with_io t f =
  Mutex.lock t.io_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.io_mu) f

let require_writing t what =
  match t.mode with
  | Writing path -> path
  | Reading -> invalid_arg ("Pager." ^ what ^ ": the pager does not write (published or opened)")

let check_id t what id =
  if id < 0 || id >= t.next_page then
    invalid_arg (Printf.sprintf "Pager.%s: page %d out of [0,%d)" what id t.next_page)

let alloc t =
  ignore (require_writing t "alloc");
  Counter.incr m_pages_allocated;
  let id = t.next_page in
  if id >= Bytes.length t.written then begin
    let grown = Bytes.make (max 64 (2 * id)) '\000' in
    Bytes.blit t.written 0 grown 0 id;
    t.written <- grown
  end;
  t.next_page <- id + 1;
  id

let n_pages t = t.next_page

(* nobody reads the temp file but this pager, so the only stale copy to
   drop is a pooled image of the page read before it was written *)
let write t id page =
  ignore (require_writing t "write");
  check_id t "write" id;
  Page.stamp page;
  with_io t (fun () ->
      t.file.Vfs.write page ~off:(id * Page.size) ~pos:0 ~len:Page.size;
      Bytes.set t.written id '\001';
      Atomic.incr t.writes;
      Read_pool.remove t.pool (Read_pool.key_of ~tag:t.tag id));
  Counter.incr m_page_writes

(* page [id] off the file into [page], zero past a short read (a file
   cut short after it was opened) *)
let read_into t page id =
  let got = Vfs.read_full t.file page ~off:(id * Page.size) ~pos:0 ~len:Page.size in
  if got < Page.size then Bytes.fill page got (Page.size - got) '\000'

(* a file read: under the I/O lock while the pager writes, lock-free once
   the file is published *)
let reading t f = match t.mode with Reading -> f () | Writing _ -> with_io t f

(* the raw page off the file, with the write count it was read at.  The
   image is fresh, never an evicted page's buffer: a reader may still
   hold that one. *)
let read_raw t id =
  let page = Bytes.create Page.size in
  Atomic.incr t.disk_reads;
  reading t (fun () ->
      read_into t page id;
      (page, Atomic.get t.writes))

(* A page image passes when its CRC matches; an all-zero page (never
   written) passes only while the pager writes, since [commit] publishes
   no such page. *)
let sound t page =
  match Page.verify page with
  | `Ok -> true
  | `Fresh -> ( match t.mode with Writing _ -> true | Reading -> false)
  | `Corrupt -> false

(* Probe the pool; on a miss read the raw page, then check its CRC and
   pool it.  Two domains missing on one page both read it (each read
   counted) and the later add replaces the earlier image, an equal one.
   A corrupt page raises before it is pooled.  A write between the raw
   read and the add has replaced the image: it is dropped again, so the
   next read sees the written bytes. *)
let read t id =
  check_id t "read" id;
  let key = Read_pool.key_of ~tag:t.tag id in
  match Read_pool.find t.pool key with
  | Some page -> page
  | None ->
    let page, writes = read_raw t id in
    Counter.incr m_page_reads;
    (* per-request attribution: the serving layer snapshots this domain's
       cell around each query (see Hopi_obs.Reqtrace) *)
    Hopi_obs.Reqtrace.Local.note_pager_read ();
    if not (sound t page) then begin
      Counter.incr m_checksum_failures;
      Storage_error.raise_error (Checksum { page = id })
    end;
    Read_pool.add t.pool key page;
    if Atomic.get t.writes <> writes then Read_pool.remove t.pool key;
    page

let commit t =
  let path = require_writing t "commit" in
  (match Bytes.index_opt (Bytes.sub t.written 0 t.next_page) '\000' with
   | Some id ->
     invalid_arg (Printf.sprintf "Pager.commit: page %d was allocated but never written" id)
   | None -> ());
  (* the commit point: the synced temp file is renamed over [path] *)
  Vfs.publish t.vfs ~fsync:t.do_fsync t.file path;
  if t.do_fsync then begin
    (* the file, then its directory entry *)
    t.fsyncs <- t.fsyncs + 2;
    Counter.add m_fsyncs 2
  end;
  t.mode <- Reading;
  Counter.incr m_commits

let verify_pages t =
  reading t @@ fun () ->
  let bad = ref [] in
  let page = Bytes.create Page.size in
  for id = t.next_page - 1 downto 0 do
    read_into t page id;
    if not (sound t page) then bad := id :: !bad
  done;
  !bad

type stats = {
  pages : int;
  pool : Read_pool.stats;
  disk_reads : int;
  disk_writes : int;
  fsyncs : int;
}

let stats t =
  { pages = t.next_page; pool = Read_pool.stats t.pool; disk_reads = Atomic.get t.disk_reads;
    disk_writes = Atomic.get t.writes; fsyncs = t.fsyncs }

let close t =
  (match t.mode with Writing _ -> commit t | Reading -> ());
  Read_pool.drop_tag t.pool t.tag;
  Log.info (fun m ->
      m "pager closed: %d pages, %d page reads, %d page writes, %d fsyncs" t.next_page
        (Atomic.get t.disk_reads) (Atomic.get t.writes) t.fsyncs);
  t.file.Vfs.close ()

let size_bytes t = t.next_page * Page.size
