(* Sharded LRU label cache (see the interface for the design contract).

   Each shard is a Hashtbl from key to an intrusive doubly-linked-list
   entry; the list order is recency (head = MRU).  All shard state is
   guarded by the shard mutex — the fast path (find hit) is one lock, one
   hash probe and two pointer splices. *)

module Registry = Hopi_obs.Registry
module Counter = Hopi_obs.Counter
module Gauge = Hopi_obs.Gauge
module Label_codec = Hopi_twohop.Label_codec

let m_hits =
  Registry.counter "hopi_serve_cache_hits_total"
    ~help:"Label-cache lookups answered from memory"

let m_misses =
  Registry.counter "hopi_serve_cache_misses_total"
    ~help:"Label-cache lookups that fell through to the store"

let m_evictions =
  Registry.counter "hopi_serve_cache_evictions_total"
    ~help:"Label-cache entries evicted to stay under the size budget"

let m_invalidations =
  Registry.counter "hopi_serve_cache_invalidations_total"
    ~help:"Label-cache entries evicted because a generation flip dirtied them"

let g_bytes =
  Registry.gauge "hopi_serve_cache_bytes" ~help:"Accounted label-cache size"

let g_entries =
  Registry.gauge "hopi_serve_cache_entries" ~help:"Live label-cache entries"

type dir = Hopi_storage.Cover_store.dir = Lin | Lout

(* Key layout: [version | node | dir-bit].  Injective as long as node ids
   stay below 2^43 and versions below 2^19 — both far beyond anything the
   element-id allocator or the generation counter can reach in practice.
   Version 0 reproduces the historical un-versioned key, so standalone
   snapshots keep byte-identical cache behaviour. *)
let key ?(version = 0) dir node =
  (version lsl 44) lor (node lsl 1) lor (match dir with Lout -> 0 | Lin -> 1)

type entry = {
  key : int;
  value : Label_codec.t;
  cost : int;
  mutable prev : entry option; (* towards MRU *)
  mutable next : entry option; (* towards LRU *)
}

type shard = {
  mu : Mutex.t;
  tbl : (int, entry) Hashtbl.t;
  mutable mru : entry option;
  mutable lru : entry option;
  mutable bytes : int;
  capacity : int;
}

type t = { shards : shard array; mask : int }

(* Payload bytes + fixed bookkeeping overhead (hash slot, list entry,
   buffer header), in bytes. *)
let entry_cost value = Bytes.length value + 96

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

let create ?(shards = 16) ~capacity_bytes () =
  if capacity_bytes <= 0 then { shards = [||]; mask = 0 }
  else begin
    let n = next_pow2 (max 1 shards) 1 in
    let per_shard = max 1 (capacity_bytes / n) in
    {
      shards =
        Array.init n (fun _ ->
            { mu = Mutex.create (); tbl = Hashtbl.create 256; mru = None;
              lru = None; bytes = 0; capacity = per_shard });
      mask = n - 1;
    }
  end

let enabled t = Array.length t.shards > 0

let capacity_bytes t =
  Array.fold_left (fun acc s -> acc + s.capacity) 0 t.shards

(* splitmix-style finaliser so consecutive node ids spread across shards *)
let mix k =
  let h = k lxor (k lsr 31) in
  let h = h * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

let shard_of t key = t.shards.(mix key land t.mask)

let with_shard s f =
  Mutex.lock s.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.mu) f

(* list surgery — caller holds the shard mutex *)

let unlink s e =
  (match e.prev with Some p -> p.next <- e.next | None -> s.mru <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> s.lru <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front s e =
  e.prev <- None;
  e.next <- s.mru;
  (match s.mru with Some m -> m.prev <- Some e | None -> s.lru <- Some e);
  s.mru <- Some e

let drop s e =
  unlink s e;
  Hashtbl.remove s.tbl e.key;
  s.bytes <- s.bytes - e.cost;
  Gauge.sub g_bytes e.cost;
  Gauge.decr g_entries

let rec evict_over_budget s =
  if s.bytes > s.capacity then
    match s.lru with
    | None -> ()
    | Some victim ->
      drop s victim;
      Counter.incr m_evictions;
      evict_over_budget s

let find t key =
  if not (enabled t) then None
  else begin
    let s = shard_of t key in
    with_shard s (fun () ->
        match Hashtbl.find_opt s.tbl key with
        | Some e ->
          Counter.incr m_hits;
          Hopi_obs.Reqtrace.Local.note_cache_hit ();
          unlink s e;
          push_front s e;
          Some e.value
        | None ->
          Counter.incr m_misses;
          Hopi_obs.Reqtrace.Local.note_cache_miss ();
          None)
  end

let add t key value =
  if enabled t then begin
    let s = shard_of t key in
    let cost = entry_cost value in
    if cost <= s.capacity then
      with_shard s (fun () ->
          (match Hashtbl.find_opt s.tbl key with
           | Some old -> drop s old (* racing domains computed the same value *)
           | None -> ());
          let e = { key; value; cost; prev = None; next = None } in
          Hashtbl.add s.tbl key e;
          push_front s e;
          s.bytes <- s.bytes + cost;
          Gauge.add g_bytes cost;
          Gauge.incr g_entries;
          evict_over_budget s)
  end

let remove t key =
  if not (enabled t) then false
  else begin
    let s = shard_of t key in
    with_shard s (fun () ->
        match Hashtbl.find_opt s.tbl key with
        | Some e ->
          drop s e;
          Counter.incr m_invalidations;
          true
        | None -> false)
  end

let hits () = m_hits

let misses () = m_misses

let evictions () = m_evictions

let invalidations () = m_invalidations

let bytes t = Array.fold_left (fun acc s -> acc + with_shard s (fun () -> s.bytes)) 0 t.shards

let entries t =
  Array.fold_left (fun acc s -> acc + with_shard s (fun () -> Hashtbl.length s.tbl)) 0 t.shards
