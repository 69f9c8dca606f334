(* The label cache is a {!Hopi_util.Lru} of encoded label sets charged
   their bytes (see the interface for the contract); this module adds the
   key packing and the process-wide metrics. *)

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

(* [version (31 bits) | node (31 bits) | dir (1 bit)]: node ids are i32
   in every store, and versions (generation numbers) only grow, so a
   field out of range is refused rather than wrapped onto another key. *)
let field_bits = 31

let key ?(version = 0) dir node =
  (* [lsr] rejects negatives too: their sign bits survive the shift *)
  if (node lor version) lsr field_bits <> 0 then
    invalid_arg (Printf.sprintf "Label_cache.key: node %d or version %d out of range" node version);
  (version lsl (field_bits + 1)) lor (node lsl 1) lor (match dir with Lout -> 0 | Lin -> 1)

module Lru = Hopi_util.Lru

type t = Label_codec.t Lru.t

(* Payload bytes + fixed bookkeeping overhead (hash slot, list node,
   buffer header), in bytes. *)
let entry_cost value = Bytes.length value + 96

let create ?shards ~capacity_bytes () =
  Lru.create ?shards ~capacity:capacity_bytes ~cost:entry_cost ()

let enabled = Lru.enabled

let capacity_bytes t = (Lru.stats t).capacity

let note (d : Lru.delta) =
  if d.cost <> 0 then Gauge.add g_bytes d.cost;
  if d.entries <> 0 then Gauge.add g_entries d.entries;
  if d.evicted > 0 then Counter.add m_evictions d.evicted

(* a disabled cache counts nothing: it is the cold-path configuration *)
let find t key =
  match Lru.find t key with
  | Some _ as hit ->
    Counter.incr m_hits;
    Hopi_obs.Reqtrace.Local.note_cache_hit ();
    hit
  | None ->
    if enabled t then begin
      Counter.incr m_misses;
      Hopi_obs.Reqtrace.Local.note_cache_miss ()
    end;
    None

let add t key value = note (Lru.add t key value)

let remove t key =
  let d = Lru.remove t key in
  note d;
  let present = d.entries < 0 in
  if present then Counter.incr m_invalidations;
  present

let hits () = m_hits

let misses () = m_misses

let evictions () = m_evictions

let invalidations () = m_invalidations

let bytes t = (Lru.stats t).cost

let entries t = (Lru.stats t).entries
