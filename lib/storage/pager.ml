module Counter = Hopi_obs.Counter
module Gauge = Hopi_obs.Gauge
module Registry = Hopi_obs.Registry

let log = Logs.Src.create "hopi.storage.pager" ~doc:"Buffer-managed page store"

module Log = (val Logs.src_log log : Logs.LOG)

(* Process-wide counters across all pager instances; the per-instance
   [stats] record below stays the source of truth for a single store. *)

let m_page_reads =
  Registry.counter "hopi_storage_page_reads_total"
    ~help:"Pages read from the backing store"

let m_page_writes =
  Registry.counter "hopi_storage_page_writes_total"
    ~help:"Pages written back to the backing store"

let m_cache_hits =
  Registry.counter "hopi_storage_cache_hits_total"
    ~help:"Buffer-pool cache hits"

let m_cache_misses =
  Registry.counter "hopi_storage_cache_misses_total"
    ~help:"Buffer-pool cache misses"

let m_evictions =
  Registry.counter "hopi_storage_evictions_total"
    ~help:"Buffer-pool evictions"

let m_pages_allocated =
  Registry.counter "hopi_storage_pages_allocated_total"
    ~help:"Pages allocated (including recycled free-list pages)"

let m_checksum_failures =
  Registry.counter "hopi_storage_checksum_failures_total"
    ~help:"Pages rejected because their CRC-32 header failed verification"

let m_journal_replays =
  Registry.counter "hopi_storage_journal_replays_total"
    ~help:"Hot rollback journals replayed on open (crash recoveries)"

let m_journal_pages =
  Registry.counter "hopi_storage_journal_pages_total"
    ~help:"Original page images written to rollback journals"

let m_fsyncs =
  Registry.counter "hopi_storage_fsyncs_total"
    ~help:"Sync points issued (journal, store and recovery fsyncs)"

let m_commits =
  Registry.counter "hopi_storage_commits_total"
    ~help:"Atomic commits (checkpointed saves)"

(* Shared read-pool counters are deliberately separate from the private
   buffer-pool counters above: the private series is what builders and
   writers do, the shared series is what the serving read path does, and
   attributing one to the other is exactly the confusion the shared pool
   exists to remove. *)

let m_shared_hits =
  Registry.counter "hopi_storage_shared_pool_hits_total"
    ~help:"Shared read-pool hits (serving snapshots, all domains)"

let m_shared_misses =
  Registry.counter "hopi_storage_shared_pool_misses_total"
    ~help:"Shared read-pool misses (each one is a page read off the store)"

let m_shared_evictions =
  Registry.counter "hopi_storage_shared_pool_evictions_total"
    ~help:"Pages evicted from shared read pools to stay within budget"

let g_shared_pages =
  Registry.gauge "hopi_storage_shared_pool_pages"
    ~help:"Pages resident across all shared read pools"

type backend = Memory | File of string

(* {1 Shared read-only page pool}

   A {!Hopi_util.Lru} of verified page images, one unit each, shared by
   every domain and snapshot generation reading immutable store files.
   Eviction only drops the table reference: a reader holding a page keeps
   a valid image, which is what makes lock-free page *use* safe under a
   locked page *lookup*.  Keys pack (tag, page id), a tag per attached
   pager, so several files share one pool and closing a pager drops
   exactly its pages. *)

module Read_pool = struct
  module Lru = Hopi_util.Lru

  type t = { lru : Page.t Lru.t; next_tag : int Atomic.t }

  type stats = { capacity : int; resident : int; hits : int; misses : int; evictions : int }

  (* a budget below one page still gets the one-page-per-shard floor *)
  let create ?shards ~pages () =
    { lru = Lru.create ?shards ~capacity:(max 1 pages) ~cost:(fun _ -> 1) ();
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

  (* like [find] but without metrics or promotion: the re-check under the
     attached pager's I/O lock after a raced miss *)
  let peek t key = Lru.peek t.lru key

  let add t key page = note (Lru.add t.lru key page)

  (* reclaim every page a closing pager cached *)
  let drop_tag t tag = note (Lru.remove_if t.lru (fun key -> tag_of key = tag))

  let stats t =
    let s = Lru.stats t.lru in
    { capacity = s.capacity; resident = s.entries; hits = s.hits; misses = s.misses;
      evictions = s.evictions }
end

type slot = {
  page : Page.t;
  mutable dirty : bool;
  mutable stamp : int;
  mutable pins : int;
}

(* [Shared] pagers are read-only views over an immutable committed file:
   page lookups go to the [Read_pool], misses are read (and CRC-verified)
   under [io_mu] — the one Vfs file handle positions with lseek+read, so
   concurrent miss reads must not interleave on it — and every write-side
   entry point is a programming error. *)
type mode =
  | Private
  | Shared of { pool : Read_pool.t; tag : int; io_mu : Mutex.t }

type t = {
  mode : mode;
  pool_pages : int;
  cache : (int, slot) Hashtbl.t;
  vfs : Vfs.t;
  file : Vfs.file;
  journal_path : string;
  do_fsync : bool;
  mutable journal : Vfs.file option;
  mutable journal_off : int;
  mutable journal_unsynced : bool;
  journaled : (int, unit) Hashtbl.t;  (* page ids already journaled this txn *)
  mutable committed_pages : int;  (* store size at the last commit *)
  mutable next_page : int;
  mutable free_list : int list;
  mutable clock : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable evictions : int;
  mutable disk_reads : int;
  mutable disk_writes : int;
  mutable fsyncs : int;
  mutable journaled_pages : int;
}

let journal_path_of path = path ^ "-journal"

let mk ?(mode = Private) ~pool_pages ~fsync ~vfs ~file ~path ~next_page () =
  {
    mode;
    pool_pages = max pool_pages 8;
    cache = Hashtbl.create 64;
    vfs;
    file;
    journal_path = journal_path_of path;
    do_fsync = fsync;
    journal = None;
    journal_off = 0;
    journal_unsynced = false;
    journaled = Hashtbl.create 16;
    committed_pages = next_page;
    next_page;
    free_list = [];
    clock = 0;
    cache_hits = 0;
    cache_misses = 0;
    evictions = 0;
    disk_reads = 0;
    disk_writes = 0;
    fsyncs = 0;
    journaled_pages = 0;
  }

let create_vfs ?(pool_pages = 256) ?(fsync = true) ~vfs path =
  (* a stale journal belongs to the store being truncated away — it must
     never be replayed over the new one *)
  if vfs.Vfs.exists (journal_path_of path) then vfs.Vfs.remove (journal_path_of path);
  let file = vfs.Vfs.open_file path ~create:true in
  mk ~pool_pages ~fsync ~vfs ~file ~path ~next_page:0 ()

let create ?pool_pages ?fsync backend =
  match backend with
  | Memory -> create_vfs ?pool_pages ?fsync ~vfs:(Vfs.memory ()) "mem.db"
  | File path -> create_vfs ?pool_pages ?fsync ~vfs:Vfs.real path

let open_mode ?mode ~pool_pages ~fsync ~vfs path =
  (match
     Journal.rollback ~vfs ~path ~journal_path:(journal_path_of path) ~fsync
   with
  | `No_journal -> ()
  | `Discarded ->
    Log.info (fun m -> m "%s: discarded an empty hot journal" path)
  | `Rolled_back n ->
    Counter.incr m_journal_replays;
    if fsync then Counter.incr m_fsyncs;
    Log.info (fun m -> m "%s: rolled back %d page(s) from a hot journal" path n));
  let file = vfs.Vfs.open_file path ~create:false in
  let size = file.Vfs.size () in
  if size mod Page.size <> 0 then begin
    file.Vfs.close ();
    Storage_error.raise_error
      (Truncated (Printf.sprintf "%s: %d bytes is not a whole number of pages" path size))
  end;
  mk ?mode ~pool_pages ~fsync ~vfs ~file ~path ~next_page:(size / Page.size) ()

let open_vfs ?(pool_pages = 256) ?(fsync = true) ~vfs path =
  open_mode ~pool_pages ~fsync ~vfs path

let open_existing ?pool_pages ?fsync path = open_vfs ?pool_pages ?fsync ~vfs:Vfs.real path

let open_shared_vfs ?(fsync = true) ~vfs ~pool path =
  let mode =
    Shared { pool; tag = Read_pool.fresh_tag pool; io_mu = Mutex.create () }
  in
  (* pool_pages is irrelevant in shared mode (the private cache is never
     consulted) but [mk] still wants a sane floor *)
  open_mode ~mode ~pool_pages:8 ~fsync ~vfs path

let open_shared ?fsync ~pool path = open_shared_vfs ?fsync ~vfs:Vfs.real ~pool path

let read_only t = match t.mode with Private -> false | Shared _ -> true

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* {1 Journal discipline}

   Invariant: before any write reaches the main file, a journal with a
   durable header exists (so recovery can truncate newly appended pages),
   and the original image of any committed page being overwritten is a
   durable journal record. *)

let sync_journal t j =
  if t.journal_unsynced then begin
    if t.do_fsync then begin
      j.Vfs.sync ();
      t.fsyncs <- t.fsyncs + 1;
      Counter.incr m_fsyncs
    end;
    t.journal_unsynced <- false
  end

let ensure_journal t =
  match t.journal with
  | Some j -> j
  | None ->
    let j = t.vfs.Vfs.open_file t.journal_path ~create:true in
    Journal.create j ~n_pages:t.committed_pages;
    t.journal_off <- Journal.header_size;
    t.journal_unsynced <- true;
    t.journal <- Some j;
    j

let journal_page t id =
  if id < t.committed_pages && not (Hashtbl.mem t.journaled id) then begin
    let j = ensure_journal t in
    (* the on-disk image is still the committed original, because pages are
       journaled before their first overwrite *)
    let orig = Page.create () in
    ignore (Vfs.read_full t.file orig ~off:(id * Page.size) ~pos:0 ~len:Page.size);
    Journal.append j ~off:t.journal_off ~page_id:id orig;
    t.journal_off <- t.journal_off + Journal.record_size;
    t.journal_unsynced <- true;
    t.journaled_pages <- t.journaled_pages + 1;
    Counter.incr m_journal_pages;
    Hashtbl.replace t.journaled id ()
  end

(* Write one page to the main file, checksum stamped.  Assumes the journal
   discipline for [id] has already been honoured. *)
let write_main t id page =
  t.disk_writes <- t.disk_writes + 1;
  Counter.incr m_page_writes;
  Page.stamp page;
  t.file.Vfs.write page ~off:(id * Page.size) ~pos:0 ~len:Page.size

let write_back t id page =
  journal_page t id;
  let j = ensure_journal t in
  sync_journal t j;
  write_main t id page

let read_from_store t id =
  t.disk_reads <- t.disk_reads + 1;
  Counter.incr m_page_reads;
  (* per-request attribution: the serving layer snapshots this domain's
     cell around each query (see Hopi_obs.Reqtrace) *)
  Hopi_obs.Reqtrace.Local.note_pager_read ();
  let page = Page.create () in
  ignore (Vfs.read_full t.file page ~off:(id * Page.size) ~pos:0 ~len:Page.size);
  (match Page.verify page with
  | `Ok | `Fresh -> ()
  | `Corrupt ->
    Counter.incr m_checksum_failures;
    Storage_error.raise_error (Checksum { page = id }));
  page

let evict_one t =
  (* LRU by stamp, skipping pinned slots; if everything is pinned the pool
     temporarily grows instead of evicting *)
  let victim = ref None in
  Hashtbl.iter
    (fun id slot ->
      if slot.pins = 0 then
        match !victim with
        | Some (_, s) when s.stamp <= slot.stamp -> ()
        | _ -> victim := Some (id, slot))
    t.cache;
  match !victim with
  | None -> ()
  | Some (id, slot) ->
    if slot.dirty then write_back t id slot.page;
    Hashtbl.remove t.cache id;
    t.evictions <- t.evictions + 1;
    Counter.incr m_evictions

let cache_insert t id page =
  if Hashtbl.length t.cache >= t.pool_pages then evict_one t;
  let slot = { page; dirty = false; stamp = tick t; pins = 0 } in
  Hashtbl.replace t.cache id slot;
  slot

let require_private t what =
  match t.mode with
  | Private -> ()
  | Shared _ -> invalid_arg ("Pager." ^ what ^ ": pager is a read-only shared view")

let alloc t =
  require_private t "alloc";
  Counter.incr m_pages_allocated;
  match t.free_list with
  | id :: rest ->
    t.free_list <- rest;
    (* recycle: present a zeroed page *)
    (match Hashtbl.find_opt t.cache id with
     | Some slot ->
       Bytes.fill slot.page 0 (Bytes.length slot.page) '\000';
       slot.dirty <- true;
       slot.stamp <- tick t
     | None ->
       let slot = cache_insert t id (Page.create ()) in
       slot.dirty <- true);
    id
  | [] ->
    let id = t.next_page in
    t.next_page <- t.next_page + 1;
    let slot = cache_insert t id (Page.create ()) in
    slot.dirty <- true;
    id

let free t id =
  require_private t "free";
  if id < 0 || id >= t.next_page then invalid_arg "Pager.free: bad page id";
  t.free_list <- id :: t.free_list

let n_pages t = t.next_page

let slot_of t id =
  if id < 0 || id >= t.next_page then
    invalid_arg (Printf.sprintf "Pager.read: page %d out of [0,%d)" id t.next_page);
  match Hashtbl.find_opt t.cache id with
  | Some slot ->
    t.cache_hits <- t.cache_hits + 1;
    Counter.incr m_cache_hits;
    slot.stamp <- tick t;
    slot
  | None ->
    t.cache_misses <- t.cache_misses + 1;
    Counter.incr m_cache_misses;
    let page = read_from_store t id in
    cache_insert t id page

(* shared mode: probe the pool lock-free of I/O, serialise miss reads on
   [io_mu] (the single Vfs handle is not positionally safe across domains)
   and re-check under it so a raced miss fills exactly once *)
let read_shared t pool tag io_mu id =
  if id < 0 || id >= t.next_page then
    invalid_arg (Printf.sprintf "Pager.read: page %d out of [0,%d)" id t.next_page);
  let key = Read_pool.key_of ~tag id in
  match Read_pool.find pool key with
  | Some page -> page
  | None ->
    Mutex.lock io_mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock io_mu) @@ fun () ->
    (match Read_pool.peek pool key with
    | Some page -> page
    | None ->
      let page = read_from_store t id in
      Read_pool.add pool key page;
      page)

let read t id =
  match t.mode with
  | Private -> (slot_of t id).page
  | Shared { pool; tag; io_mu } -> read_shared t pool tag io_mu id

let pin t id =
  match t.mode with
  | Private ->
    let slot = slot_of t id in
    slot.pins <- slot.pins + 1;
    slot.page
  | Shared _ ->
    (* nothing mutates or recycles shared pages, so a pin is just a read *)
    read t id

let unpin t id =
  match t.mode with
  | Shared _ -> ()
  | Private ->
    (match Hashtbl.find_opt t.cache id with
    | Some slot when slot.pins > 0 -> slot.pins <- slot.pins - 1
    | Some _ -> invalid_arg "Pager.unpin: page not pinned"
    | None -> invalid_arg "Pager.unpin: page not resident")

let mark_dirty t id =
  require_private t "mark_dirty";
  match Hashtbl.find_opt t.cache id with
  | Some slot -> slot.dirty <- true
  | None -> invalid_arg "Pager.mark_dirty: page not resident"

let dirty_slots t =
  Hashtbl.fold (fun id slot acc -> if slot.dirty then (id, slot) :: acc else acc)
    t.cache []

let flush t =
  require_private t "flush";
  List.iter
    (fun (id, slot) ->
      write_back t id slot.page;
      slot.dirty <- false)
    (dirty_slots t)

let sync_main t =
  if t.do_fsync then begin
    t.file.Vfs.sync ();
    t.fsyncs <- t.fsyncs + 1;
    Counter.incr m_fsyncs
  end

let commit t =
  require_private t "commit";
  let dirty = dirty_slots t in
  if dirty <> [] || t.journal <> None then begin
    (* 1. journal the originals of every committed page about to change,
       then make the whole journal durable with one sync *)
    List.iter (fun (id, _) -> journal_page t id) dirty;
    if dirty <> [] then begin
      let j = ensure_journal t in
      sync_journal t j
    end;
    (* 2. write the new state *)
    List.iter
      (fun (id, slot) ->
        write_main t id slot.page;
        slot.dirty <- false)
      dirty;
    (* 3. make it durable *)
    sync_main t;
    (* 4. commit point: drop the journal *)
    (match t.journal with
    | Some j ->
      j.Vfs.close ();
      t.journal <- None
    | None -> ());
    if t.vfs.Vfs.exists t.journal_path then t.vfs.Vfs.remove t.journal_path;
    Hashtbl.reset t.journaled;
    t.journal_unsynced <- false;
    t.committed_pages <- t.next_page;
    Counter.incr m_commits
  end

let verify_pages t =
  let scan () =
    let bad = ref [] in
    let page = Page.create () in
    for id = t.next_page - 1 downto 0 do
      Bytes.fill page 0 Page.size '\000';
      ignore (Vfs.read_full t.file page ~off:(id * Page.size) ~pos:0 ~len:Page.size);
      match Page.verify page with
      | `Ok | `Fresh -> ()
      | `Corrupt -> bad := id :: !bad
    done;
    !bad
  in
  match t.mode with
  | Private -> scan ()
  | Shared { io_mu; _ } ->
    (* the raw file scan must not interleave with concurrent miss reads *)
    Mutex.lock io_mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock io_mu) scan

type stats = {
  pages : int;
  free_pages : int;
  cache_hits : int;
  cache_misses : int;
  evictions : int;
  disk_reads : int;
  disk_writes : int;
  fsyncs : int;
  journaled_pages : int;
}

let stats t =
  match t.mode with
  | Private ->
    {
      pages = t.next_page;
      free_pages = List.length t.free_list;
      cache_hits = t.cache_hits;
      cache_misses = t.cache_misses;
      evictions = t.evictions;
      disk_reads = t.disk_reads;
      disk_writes = t.disk_writes;
      fsyncs = t.fsyncs;
      journaled_pages = t.journaled_pages;
    }
  | Shared { pool; _ } ->
    (* hit/miss/eviction numbers are pool-wide (the pool is the cache);
       disk_reads is this pager's own, updated under its io_mu *)
    let p = Read_pool.stats pool in
    {
      pages = t.next_page;
      free_pages = 0;
      cache_hits = p.Read_pool.hits;
      cache_misses = p.Read_pool.misses;
      evictions = p.Read_pool.evictions;
      disk_reads = t.disk_reads;
      disk_writes = 0;
      fsyncs = 0;
      journaled_pages = 0;
    }

let close t =
  (match t.mode with
  | Private -> commit t
  | Shared { pool; tag; _ } -> Read_pool.drop_tag pool tag);
  Log.info (fun m ->
      m "pager closed: %d pages, %d hits / %d misses, %d evictions, %d fsyncs"
        t.next_page t.cache_hits t.cache_misses t.evictions t.fsyncs);
  t.file.Vfs.close ()

let size_bytes t = t.next_page * Page.size
