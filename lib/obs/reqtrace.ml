(* Per-request tracing for the serving path.

   Every query evaluated by [Hopi_serve.Batch] gets a request id and a
   record of what serving it cost: latency, label-cache hits/misses,
   label sets probed, and pages read off the store.  Attribution works
   without any per-request plumbing through the storage stack: the
   instrumented layers bump *domain-local* cells ([Local] below, four
   slots of the same [Cells] store the counters record into) next to
   their process-wide counters, and because one query runs entirely on
   one domain, the cell deltas between [start] and [finish] belong to
   exactly that request.

   [finish] feeds three consumers:
   - per-query-kind latency histograms
     [hopi_serve_query_kind_<kind>_duration_ns] (the per-kind breakdown
     the paper's evaluation tables need);
   - the [serve_query] {!Slo} (p50/p95/p99 gauges against configurable
     targets), refreshed every [slo_update_every] requests of a domain;
   - a bounded ring of slow-query samples ([slowlog]) for any request at
     or above the threshold, with an explain-style dump ([pp_slowlog]).

   The fast path (request below the threshold) is two clock reads, a
   4-slot array snapshot and two histogram observes — no locks. *)

module Timer = Hopi_util.Timer

(* {1 Domain-local attribution cells} *)

module Local = struct
  let n_slots = 4

  let pager_reads = 0

  let cache_hits = 1

  let cache_misses = 2

  let labels_probed = 3

  let first = Cells.alloc ~sum:n_slots ~max:0

  let bump slot = Cells.add (first + slot) 1

  (* called by [Hopi_storage.Pager] on every page read off the backing store *)
  let note_pager_read () = bump pager_reads

  (* called by [Hopi_serve.Label_cache.find] *)
  let note_cache_hit () = bump cache_hits

  let note_cache_miss () = bump cache_misses

  (* called by [Hopi_serve.Snapshot] per label-set fetch *)
  let note_label_probe () = bump labels_probed

  (* the calling domain's cells, slot [i] at index [i] *)
  let snapshot () = Array.sub (Cells.local (first + n_slots - 1)) first n_slots
end

(* {1 Request records} *)

type sample = {
  id : int;
  kind : string;
  query : string;
  answer : string;
  latency_ns : int;
  cache_hits : int;
  cache_misses : int;
  labels_probed : int;
  pager_reads : int;
  conn : int;  (* connection id when served over a socket; 0 = local *)
  queue_wait_ns : int;  (* admission-queue wait before evaluation began *)
}

type token = { t0 : Timer.t; base : int array }

let start () = { t0 = Timer.start (); base = Local.snapshot () }

(* {1 Per-kind histograms}

   One histogram per query kind, resolved through the registry on first
   sight of the kind and memoized in a per-domain table so the hot path
   never touches the registry mutex. *)

let kind_hist_key : (string, Histogram.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let kind_histogram kind =
  let tbl = Domain.DLS.get kind_hist_key in
  match Hashtbl.find_opt tbl kind with
  | Some h -> h
  | None ->
    let h =
      Registry.histogram
        (Printf.sprintf "hopi_serve_query_kind_%s_duration_ns" kind)
        ~help:(Printf.sprintf "Service time of %s queries" kind)
    in
    Hashtbl.add tbl kind h;
    h

(* {1 SLO} *)

let overall_hist =
  Registry.histogram "hopi_serve_query_duration_ns" ~help:"Per-query service time"

let slo = Slo.create ~name:"serve_query" ~hist:overall_hist

let refresh () = Slo.update slo

(* refresh cadence for the SLO gauges, in requests per domain *)
let slo_update_every = 256

(* Request ids are handed to each domain in blocks of [slo_update_every]:
   one shared [fetch_and_add] per block instead of one per request.  Ids
   stay unique and rise within a domain; taking a block refreshes the
   SLO gauges. *)
type ids = { mutable next : int; mutable limit : int }

let blocks = Atomic.make 0

let ids_key = Domain.DLS.new_key (fun () -> { next = 0; limit = 0 })

let next_id () =
  let r = Domain.DLS.get ids_key in
  if r.next = r.limit then begin
    let b = Atomic.fetch_and_add blocks slo_update_every in
    r.next <- b;
    r.limit <- b + slo_update_every;
    ignore (refresh ())
  end;
  r.next <- r.next + 1;
  r.next

(* {1 Slow-query log} *)

let m_slow =
  Registry.counter "hopi_serve_slow_queries_total"
    ~help:"Queries at or above the slow-query threshold"

(* max_int = disabled; [--slow-ms 0] records every query *)
let slow_threshold_ns = Atomic.make max_int

let set_slow_threshold_ns ns = Atomic.set slow_threshold_ns (max 0 ns)

let disable_slowlog () = Atomic.set slow_threshold_ns max_int

let slow_threshold () = Atomic.get slow_threshold_ns

let slowlog_mu = Mutex.create ()

let default_slowlog_capacity = 128

let slowlog_cap = ref default_slowlog_capacity

let slowlog_ring : sample option array ref = ref (Array.make default_slowlog_capacity None)

let slowlog_next = ref 0 (* ring slot the next sample lands in *)

let slowlog_seen = ref 0 (* samples ever pushed (ring may have dropped some) *)

let set_slowlog_capacity n =
  Mutex.protect slowlog_mu (fun () ->
      let n = max 1 n in
      slowlog_cap := n;
      slowlog_ring := Array.make n None;
      slowlog_next := 0;
      slowlog_seen := 0)

let slowlog_push s =
  Counter.incr m_slow;
  Mutex.protect slowlog_mu (fun () ->
      !slowlog_ring.(!slowlog_next) <- Some s;
      slowlog_next := (!slowlog_next + 1) mod !slowlog_cap;
      incr slowlog_seen)

(* Newest first.  [slowlog_seen] may exceed the capacity — then the ring
   holds only the most recent [slowlog_cap] samples (drop-oldest). *)
let slowlog () =
  Mutex.protect slowlog_mu (fun () ->
      let ring = !slowlog_ring and cap = !slowlog_cap in
      let n = min !slowlog_seen cap in
      List.init n (fun i ->
          match ring.((!slowlog_next - 1 - i + (2 * cap)) mod cap) with
          | Some s -> s
          | None -> assert false (* slots below [seen] are always filled *)))

(* samples ever pushed, including ones the ring has since dropped *)
let slowlog_total () = Mutex.protect slowlog_mu (fun () -> !slowlog_seen)

let reset_slowlog () =
  Mutex.protect slowlog_mu (fun () ->
      Array.fill !slowlog_ring 0 !slowlog_cap None;
      slowlog_next := 0;
      slowlog_seen := 0)

(* {1 Finishing a request} *)

(* [query]/[answer] are thunks so the rendered text is only materialised
   for requests that actually enter the slow log.  Returns the latency so
   the caller can feed its own aggregate histogram without a second clock
   read.  [conn]/[queue_wait_ns] attribute socket-served requests to their
   connection and the time they spent queued before evaluation; both
   default to 0 for locally evaluated queries. *)
let finish ?(conn = 0) ?(queue_wait_ns = 0) tok ~kind ~query ~answer =
  let latency_ns = Int64.to_int (Timer.elapsed_ns tok.t0) in
  let id = next_id () in
  Histogram.observe (kind_histogram kind) latency_ns;
  Histogram.observe overall_hist latency_ns;
  if latency_ns >= Atomic.get slow_threshold_ns then begin
    let cur = Local.snapshot () in
    let delta slot = cur.(slot) - tok.base.(slot) in
    slowlog_push
      {
        id;
        kind;
        query = query ();
        answer = answer ();
        latency_ns;
        cache_hits = delta Local.cache_hits;
        cache_misses = delta Local.cache_misses;
        labels_probed = delta Local.labels_probed;
        pager_reads = delta Local.pager_reads;
        conn;
        queue_wait_ns;
      }
  end;
  latency_ns

(* {1 Explain-style dump} *)

let pp_sample ppf s =
  let secs = float_of_int s.latency_ns *. 1e-9 in
  Format.fprintf ppf "#%d %-5s %a  %s -> %s@." s.id s.kind Timer.pp_duration secs
    s.query s.answer;
  if s.conn <> 0 || s.queue_wait_ns > 0 then
    Format.fprintf ppf "      conn #%d · queued %a@." s.conn Timer.pp_duration
      (float_of_int s.queue_wait_ns *. 1e-9);
  Format.fprintf ppf "      cache %d hit%s / %d miss%s · %d label set%s probed · %d page read%s@."
    s.cache_hits
    (if s.cache_hits = 1 then "" else "s")
    s.cache_misses
    (if s.cache_misses = 1 then "" else "es")
    s.labels_probed
    (if s.labels_probed = 1 then "" else "s")
    s.pager_reads
    (if s.pager_reads = 1 then "" else "s")

let pp_slowlog ppf () =
  let entries = slowlog () in
  let threshold = Atomic.get slow_threshold_ns in
  if threshold = max_int then
    Format.fprintf ppf "slowlog: disabled (serve --slow-ms N to enable)@."
  else
    Format.fprintf ppf "slowlog: %d recorded, showing newest %d (threshold %a)@."
      (slowlog_total ()) (List.length entries) Timer.pp_duration
      (float_of_int threshold *. 1e-9);
  List.iter (pp_sample ppf) entries
