(* Tests for the serving layer: LRU cache bounds and accounting, sharded
   thread safety under the domain pool, and — the load-bearing one — a
   qcheck differential proving that snapshot answers (cached or not) are
   identical, query by query over random digraphs, to those of the
   in-memory cover the store was loaded from and of the graph's
   transitive closure. *)

module Cache = Hopi_serve.Label_cache
module Snapshot = Hopi_serve.Snapshot
module Batch = Hopi_serve.Batch
module Pool = Hopi_util.Pool
module Counter = Hopi_obs.Counter
module Gen = QCheck2.Gen
module Digraph = Hopi_graph.Digraph
module Closure = Hopi_graph.Closure
module Builder = Hopi_twohop.Builder
module Dist_builder = Hopi_twohop.Dist_builder
module Pager = Hopi_storage.Pager
module Cover_store = Hopi_storage.Cover_store
module Cover = Hopi_twohop.Cover
module Int_set = Hopi_util.Int_set

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* {1 Label cache} *)

let arr n = Bytes.make n '\007'

(* the bytes a cache charges for an entry with this payload, as measured
   through a cache large enough to hold it *)
let entry_cost a =
  let c = Cache.create ~shards:1 ~capacity_bytes:(1 lsl 30) () in
  Cache.add c 0 a;
  Cache.bytes c

(* capacity for exactly [n] entries of payload [len] in a 1-shard cache *)
let capacity_for n len = n * entry_cost (arr len)

let counter name = Counter.get (Hopi_obs.Registry.counter name)
let evictions () = counter "hopi_serve_cache_evictions_total"
let invalidations () = counter "hopi_serve_cache_invalidations_total"

let test_cache_basic () =
  let c = Cache.create ~shards:1 ~capacity_bytes:(capacity_for 4 10) () in
  checki "capacity" (capacity_for 4 10) (Cache.capacity_bytes c);
  checkb "miss on empty" true (Cache.find c 1 = None);
  Cache.add c 1 (arr 10);
  checkb "hit after add" true (Cache.find c 1 <> None);
  checki "entries" 1 (Cache.entries c);
  checki "bytes" (entry_cost (arr 10)) (Cache.bytes c)

let test_cache_eviction_bound () =
  let cap = capacity_for 4 10 in
  let c = Cache.create ~shards:1 ~capacity_bytes:cap () in
  for k = 0 to 99 do
    Cache.add c k (arr 10);
    checkb "within budget" true (Cache.bytes c <= cap)
  done;
  checki "entries bounded" 4 (Cache.entries c);
  (* LRU order: the last four inserted survive *)
  for k = 96 to 99 do
    checkb "recent key cached" true (Cache.find c k <> None)
  done;
  checkb "old key evicted" true (Cache.find c 0 = None)

let test_cache_promotion () =
  let c = Cache.create ~shards:1 ~capacity_bytes:(capacity_for 3 10) () in
  Cache.add c 1 (arr 10);
  Cache.add c 2 (arr 10);
  Cache.add c 3 (arr 10);
  (* touch 1 so it is MRU; adding 4 must evict 2, the LRU *)
  ignore (Cache.find c 1);
  Cache.add c 4 (arr 10);
  checkb "promoted key survives" true (Cache.find c 1 <> None);
  checkb "LRU key evicted" true (Cache.find c 2 = None);
  checkb "others survive" true (Cache.find c 3 <> None && Cache.find c 4 <> None)

let test_cache_replace () =
  let c = Cache.create ~shards:1 ~capacity_bytes:(capacity_for 4 20) () in
  Cache.add c 1 (arr 10);
  Cache.add c 1 (arr 20);
  checki "one entry after replace" 1 (Cache.entries c);
  checki "replacement cost accounted" (entry_cost (arr 20)) (Cache.bytes c);
  match Cache.find c 1 with
  | Some a -> checki "replacement payload" 20 (Bytes.length a)
  | None -> Alcotest.fail "replaced entry missing"

let test_cache_oversize_skipped () =
  let c = Cache.create ~shards:1 ~capacity_bytes:(capacity_for 2 10) () in
  Cache.add c 1 (arr 10);
  Cache.add c 2 (arr 10_000); (* larger than the whole shard: not cached *)
  checkb "oversize not cached" true (Cache.find c 2 = None);
  checkb "small entry untouched" true (Cache.find c 1 <> None)

let test_cache_disabled () =
  let c = Cache.create ~capacity_bytes:0 () in
  checki "disabled: no capacity" 0 (Cache.capacity_bytes c);
  let h0 = Counter.get (Cache.hits ()) and m0 = Counter.get (Cache.misses ()) in
  Cache.add c 1 (arr 10);
  checkb "find misses" true (Cache.find c 1 = None);
  checki "entries" 0 (Cache.entries c);
  checki "no hit counted" h0 (Counter.get (Cache.hits ()));
  checki "no miss counted" m0 (Counter.get (Cache.misses ()))

let test_cache_metrics () =
  let c = Cache.create ~shards:1 ~capacity_bytes:(capacity_for 2 10) () in
  let h0 = Counter.get (Cache.hits ())
  and m0 = Counter.get (Cache.misses ())
  and e0 = evictions () in
  ignore (Cache.find c 1); (* miss *)
  Cache.add c 1 (arr 10);
  ignore (Cache.find c 1); (* hit *)
  Cache.add c 2 (arr 10);
  Cache.add c 3 (arr 10); (* evicts 1 *)
  checki "one miss" (m0 + 1) (Counter.get (Cache.misses ()));
  checki "one hit" (h0 + 1) (Counter.get (Cache.hits ()));
  checki "one eviction" (e0 + 1) (evictions ())

(* versioned keys: one packed integer per (version, node, direction), no
   collisions across a representative grid, and version 0 is exactly the
   historical un-versioned key *)
let test_cache_key_versioning () =
  checki "default version is 0" (Cache.key Cache.Lout 5)
    (Cache.key ~version:0 Cache.Lout 5);
  checki "default version is 0 (Lin)" (Cache.key Cache.Lin 5)
    (Cache.key ~version:0 Cache.Lin 5);
  let seen = Hashtbl.create 256 in
  List.iter
    (fun version ->
      List.iter
        (fun node ->
          List.iter
            (fun (dname, dir) ->
              let k = Cache.key ~version dir node in
              (match Hashtbl.find_opt seen k with
              | Some other ->
                Alcotest.failf "key collision: (v=%d n=%d %s) vs %s" version
                  node dname other
              | None -> ());
              Hashtbl.replace seen k
                (Printf.sprintf "(v=%d n=%d %s)" version node dname))
            [ ("in", Cache.Lin); ("out", Cache.Lout) ])
        [ 0; 1; 2; 63; 4095; 1_000_000 ])
    [ 0; 1; 2; 3; 17; 1000 ];
  checki "whole grid distinct" (6 * 6 * 2) (Hashtbl.length seen)

(* generation numbers persist and only grow: a version past the old 19-bit
   field must not wrap onto generation 0's key, and anything that does not
   fit its field is refused *)
let test_cache_key_range () =
  List.iter
    (fun version ->
      List.iter
        (fun dir ->
          checkb
            (Printf.sprintf "version %d differs from version 0" version)
            true
            (Cache.key ~version dir 7 <> Cache.key ~version:0 dir 7))
        [ Cache.Lin; Cache.Lout ])
    [ 1 lsl 19; (1 lsl 19) + 1; 1 lsl 30; (1 lsl 31) - 1 ];
  checkb "largest node and version still distinct" true
    (Cache.key ~version:((1 lsl 31) - 1) Cache.Lin ((1 lsl 31) - 1)
    <> Cache.key ~version:((1 lsl 31) - 1) Cache.Lout ((1 lsl 31) - 1));
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  raises "node 2^31" (fun () -> Cache.key Cache.Lout (1 lsl 31));
  raises "negative node" (fun () -> Cache.key Cache.Lin (-1));
  raises "version 2^31" (fun () -> Cache.key ~version:(1 lsl 31) Cache.Lout 0);
  raises "negative version" (fun () -> Cache.key ~version:(-1) Cache.Lout 0)

(* a budget that does not divide by the shard count is honoured whole *)
let test_cache_budget_remainder () =
  checki "100 bytes over 16 shards" 100
    (Cache.capacity_bytes (Cache.create ~capacity_bytes:100 ()));
  checki "64 MiB unchanged" (64 * 1024 * 1024)
    (Cache.capacity_bytes (Cache.create ~capacity_bytes:(64 * 1024 * 1024) ()))

(* remove: exact per-entry accounting, counted as an invalidation (not an
   eviction), absent keys report false *)
let test_cache_remove () =
  let c = Cache.create ~shards:1 ~capacity_bytes:(capacity_for 4 10) () in
  let k1 = Cache.key Cache.Lout 1 and k2 = Cache.key ~version:3 Cache.Lin 1 in
  Cache.add c k1 (arr 10);
  Cache.add c k2 (arr 10);
  checki "two entries" 2 (Cache.entries c);
  let i0 = invalidations ()
  and e0 = evictions () in
  checkb "remove present key" true (Cache.remove c k1);
  checki "one entry left" 1 (Cache.entries c);
  checki "bytes re-accounted exactly" (entry_cost (arr 10)) (Cache.bytes c);
  checkb "removed key misses" true (Cache.find c k1 = None);
  checkb "other version of the same node survives" true (Cache.find c k2 <> None);
  checkb "remove absent key" false (Cache.remove c k1);
  checki "one invalidation counted" (i0 + 1) (invalidations ());
  checki "no eviction counted" e0 (evictions ());
  checkb "remove last entry" true (Cache.remove c k2);
  checki "empty" 0 (Cache.entries c);
  checki "accounting back to zero" 0 (Cache.bytes c)

(* worker domains hammer a small sharded cache with overlapping keys; the
   cache must neither crash nor leak past its budget, and every completed
   add of a still-resident key must return the right payload *)
let test_cache_pool_safety () =
  let cap = capacity_for 64 8 in
  let c = Cache.create ~shards:4 ~capacity_bytes:cap () in
  Pool.with_pool ~jobs:4 @@ fun pool ->
  ignore
    (Pool.parallel_map pool 4_000 (fun i ->
         let key = i mod 97 in
         match Cache.find c key with
         | Some a ->
           if Bytes.length a <> key mod 13 then failwith "payload mixed up between keys"
         | None -> Cache.add c key (Bytes.make (key mod 13) '\000')));
  checkb "bytes within budget" true (Cache.bytes c <= cap);
  (* at rest, the per-entry costs must re-add to the accounted bytes *)
  let accounted = ref 0 in
  for key = 0 to 96 do
    match Cache.find c key with
    | Some a -> accounted := !accounted + entry_cost a
    | None -> ()
  done;
  checki "cost accounting consistent" (Cache.bytes c) !accounted

(* {1 Snapshot vs in-memory index differential} *)

let gen_digraph =
  let open Gen in
  int_range 2 24 >>= fun n ->
  let edge = pair (int_bound (n - 1)) (int_bound (n - 1)) in
  list_size (int_bound (3 * n)) edge >|= fun edges ->
  let g = Digraph.create () in
  for v = 0 to n - 1 do
    Digraph.add_node g v
  done;
  List.iter (fun (u, v) -> if u <> v then Digraph.add_edge g u v) edges;
  g

(* persist [load] into a fresh temp page file, hand the path to [f] *)
let with_store_file load f =
  let path = Filename.temp_file "hopi_test_serve" ".db" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let pager = Pager.create ~pool_pages:64 ~fsync:false (Pager.File path) in
      let store = load pager in
      Cover_store.save store;
      Pager.close pager;
      f path)

(* every node an iterator yields, sorted: equal to a sorted oracle set
   only when each node is yielded once *)
let yielded iter u =
  let acc = ref [] in
  iter u (fun w -> acc := w :: !acc);
  List.sort compare !acc

(* every (u, v) pair over a node range, plus ids the store never saw *)
let all_pairs n = List.concat_map (fun u -> List.map (fun v -> (u, v)) (List.init (n + 2) Fun.id)) (List.init (n + 2) Fun.id)

(* The oracle is independent of the stored index: the in-memory cover
   the store was loaded from answers membership, reachability and
   distances, the transitive closure answers descendants and ancestors. *)
let snapshot_matches_index ~cache_mb g ~dist =
  let clo = Closure.compute g in
  let c = if dist then fst (Dist_builder.build g) else fst (Builder.build clo) in
  let load pager = Cover_store.of_cover pager c
  and mem = Cover.mem_node c
  and reach = Cover.connected c
  and distance = Cover.dist c
  and n_nodes = List.length (Cover.nodes c) in
  let closure_set f u = if mem u then Int_set.to_list (f clo u) else [] in
  with_store_file load @@ fun path ->
  let snap = Snapshot.open_file ~pool_pages:64 ~cache_mb path in
  Fun.protect ~finally:(fun () -> Snapshot.close snap) @@ fun () ->
  checki "n_nodes agrees" n_nodes (Snapshot.n_nodes snap);
  let n = Digraph.n_nodes g in
  List.iter
    (fun (u, v) ->
      let ctx = Printf.sprintf "(%d,%d) dist=%b cache=%d" u v dist cache_mb in
      (* twice per pair: the second round hits any cache *)
      for _ = 1 to 2 do
        checkb ("mem " ^ ctx) (mem u) (Snapshot.connected snap u u);
        checkb ("connected " ^ ctx) (reach u v) (Snapshot.connected snap u v);
        check
          Alcotest.(option int)
          ("min_distance " ^ ctx) (distance u v)
          (Snapshot.min_distance snap u v);
        check
          Alcotest.(list int)
          ("descendants " ^ ctx)
          (closure_set Closure.succs u)
          (yielded (Snapshot.iter_desc snap) u);
        check
          Alcotest.(list int)
          ("ancestors " ^ ctx)
          (closure_set Closure.preds v)
          (yielded (Snapshot.iter_anc snap) v)
      done)
    (all_pairs n);
  true

let prop_snapshot_matches_index =
  QCheck2.Test.make
    ~name:"snapshot answers = in-memory cover + closure (plain + dist, cached + not)"
    ~count:20 gen_digraph (fun g ->
      List.for_all
        (fun (cache_mb, dist) -> snapshot_matches_index ~cache_mb g ~dist)
        [ (0, false); (4, false); (0, true); (4, true) ])

(* cached parallel batch = uncached sequential batch, byte for byte *)
let prop_batch_cached_equals_uncached =
  QCheck2.Test.make
    ~name:"eval_batch: warm cached pool run renders = cold uncached run"
    ~count:15 gen_digraph (fun g ->
      let cover = fst (Builder.build (Closure.compute g)) in
      with_store_file (fun pager -> Cover_store.of_cover pager cover)
      @@ fun path ->
      let n = Digraph.n_nodes g in
      let queries =
        Array.concat
          [
            Array.init (n * n) (fun i -> Batch.Reach (i / n, i mod n));
            Array.init (n * n) (fun i -> Batch.Dist (i / n, i mod n));
            Array.init n (fun v -> Batch.Desc v);
            Array.init n (fun v -> Batch.Anc v);
          ]
      in
      let run ~cache_mb ~jobs =
        let snap = Snapshot.open_file ~pool_pages:64 ~cache_mb path in
        Fun.protect ~finally:(fun () -> Snapshot.close snap) @@ fun () ->
        Pool.with_pool ~jobs @@ fun pool ->
        (* two passes: the second one serves labels from a warm cache *)
        ignore (Batch.eval_batch ~pool snap queries);
        Array.map Batch.render (Batch.eval_batch ~pool snap queries)
      in
      let cold = run ~cache_mb:0 ~jobs:1 in
      let warm = run ~cache_mb:8 ~jobs:4 in
      if cold <> warm then
        QCheck2.Test.fail_reportf "cached/uncached disagree on %s"
          (Array.to_list queries
          |> List.filteri (fun i _ -> cold.(i) <> warm.(i))
          |> List.map (Format.asprintf "%a" Batch.pp_query)
          |> String.concat "; ");
      true)

(* {1 Batch parsing} *)

let test_batch_parse () =
  let ok line q =
    match Batch.parse line with
    | Ok q' -> check Alcotest.string line (Format.asprintf "%a" Batch.pp_query q)
                 (Format.asprintf "%a" Batch.pp_query q')
    | Error e -> Alcotest.fail (line ^ ": " ^ e)
  in
  ok "reach 1 2" (Batch.Reach (1, 2));
  ok "  dist  3   4 " (Batch.Dist (3, 4));
  ok "desc 5" (Batch.Desc 5);
  ok "anc 6" (Batch.Anc 6);
  ok "path //article//title" (Batch.Path "//article//title");
  List.iter
    (fun line ->
      match Batch.parse line with
      | Ok _ -> Alcotest.fail ("should not parse: " ^ line)
      | Error _ -> ())
    [ ""; "reach 1"; "reach one two"; "dist 1 2 3"; "flip 1 2"; "path" ]

let test_batch_render () =
  List.iter
    (fun (a, s) -> check Alcotest.string s s (Batch.render a))
    [
      (Batch.Bool true, "true");
      (Batch.Bool false, "false");
      (Batch.Distance None, "unreachable");
      (Batch.Distance (Some 3), "3");
      (Batch.Count 7, "7");
      (Batch.Rendered "12 matches", "12 matches");
      (Batch.Failed "nope", "error: nope");
    ]

(* {1 Reqtrace acceptance: a batch run produces per-kind latency
   histograms, live SLO gauges and a populated slowlog} *)

module Registry = Hopi_obs.Registry
module Histogram = Hopi_obs.Histogram
module Gauge = Hopi_obs.Gauge
module Reqtrace = Hopi_obs.Reqtrace
module Slo = Hopi_obs.Slo

let test_batch_reqtrace () =
  let g = Digraph.create () in
  for v = 0 to 9 do
    Digraph.add_node g v
  done;
  for v = 0 to 8 do
    Digraph.add_edge g v (v + 1)
  done;
  let cover = fst (Builder.build (Closure.compute g)) in
  with_store_file (fun pager -> Cover_store.of_cover pager cover) @@ fun path ->
  let snap = Snapshot.open_file ~cache_mb:4 path in
  Fun.protect ~finally:(fun () -> Snapshot.close snap) @@ fun () ->
  Reqtrace.reset_slowlog ();
  Reqtrace.set_slow_threshold_ns 0;
  Fun.protect
    ~finally:(fun () ->
      Reqtrace.disable_slowlog ();
      Reqtrace.reset_slowlog ();
      Slo.set_targets ~p50_ns:0 ~p95_ns:0 ~p99_ns:0 Reqtrace.slo)
  @@ fun () ->
  let kind_count kind =
    Histogram.count
      (Registry.histogram (Printf.sprintf "hopi_serve_query_kind_%s_duration_ns" kind))
  in
  let kinds = [ "reach"; "dist"; "desc"; "anc" ] in
  let before = List.map kind_count kinds in
  let queries =
    [| Batch.Reach (0, 9); Batch.Dist (0, 5); Batch.Desc 0; Batch.Anc 9 |]
  in
  Pool.with_pool ~jobs:2 @@ fun pool ->
  let answers = Batch.eval_batch ~pool snap queries in
  checkb "reach answered" true (answers.(0) = Batch.Bool true);
  (* plain (non-dist) covers answer reachability-backed distances; the
     exact value is the store's business — reqtrace only needs the query
     to have run *)
  checkb "dist answered" true
    (match answers.(1) with Batch.Distance (Some _) -> true | _ -> false);
  checkb "desc answered" true (answers.(2) = Batch.Count 10);
  checkb "anc answered" true (answers.(3) = Batch.Count 10);
  (* every kind fed its own latency histogram exactly once *)
  List.iter2
    (fun kind b -> checki ("kind histogram " ^ kind) (b + 1) (kind_count kind))
    kinds before;
  (* slowlog at threshold 0 records all four, with sane attribution *)
  let entries = Reqtrace.slowlog () in
  checki "slowlog has the whole batch" 4 (List.length entries);
  List.iter
    (fun s ->
      checkb ("latency measured: " ^ s.Reqtrace.query) true (s.Reqtrace.latency_ns >= 0);
      checkb ("labels probed: " ^ s.Reqtrace.query) true (s.Reqtrace.labels_probed >= 1);
      checkb ("answer rendered: " ^ s.Reqtrace.query) true (s.Reqtrace.answer <> ""))
    entries;
  (* a cold store means someone had to touch pages *)
  checkb "pager reads attributed" true
    (List.exists (fun s -> s.Reqtrace.pager_reads > 0) entries);
  (* SLO gauges move with the configured targets *)
  Slo.set_targets ~p50_ns:max_int ~p95_ns:max_int ~p99_ns:max_int Reqtrace.slo;
  checkb "generous serve SLO holds" true (Slo.update Reqtrace.slo);
  checki "ok gauge set" 1 (Gauge.get (Registry.gauge "hopi_slo_serve_query_ok"));
  checkb "observed p95 published" true
    (Gauge.get (Registry.gauge "hopi_slo_serve_query_p95_ns") > 0);
  Slo.set_targets ~p95_ns:1 Reqtrace.slo;
  checkb "1ns p95 target breached" false (Slo.update Reqtrace.slo);
  checki "ok gauge cleared" 0 (Gauge.get (Registry.gauge "hopi_slo_serve_query_ok"))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "serve.cache",
      [
        Alcotest.test_case "basic add/find" `Quick test_cache_basic;
        Alcotest.test_case "eviction keeps bytes under budget" `Quick
          test_cache_eviction_bound;
        Alcotest.test_case "find promotes to MRU" `Quick test_cache_promotion;
        Alcotest.test_case "replace accounts the new cost" `Quick test_cache_replace;
        Alcotest.test_case "oversize entries are skipped" `Quick
          test_cache_oversize_skipped;
        Alcotest.test_case "capacity 0 disables the cache" `Quick test_cache_disabled;
        Alcotest.test_case "hit/miss/eviction metrics" `Quick test_cache_metrics;
        Alcotest.test_case "versioned key packing is injective" `Quick
          test_cache_key_versioning;
        Alcotest.test_case "versioned keys never alias or wrap" `Quick
          test_cache_key_range;
        Alcotest.test_case "budget remainder is kept" `Quick test_cache_budget_remainder;
        Alcotest.test_case "remove balances the accounting" `Quick test_cache_remove;
        Alcotest.test_case "sharded cache is pool-safe" `Quick test_cache_pool_safety;
      ] );
    ( "serve.batch",
      [
        Alcotest.test_case "query parsing" `Quick test_batch_parse;
        Alcotest.test_case "answer rendering" `Quick test_batch_render;
        Alcotest.test_case "batch run feeds reqtrace/SLO/slowlog" `Quick
          test_batch_reqtrace;
      ] );
    ( "serve.differential",
      qsuite [ prop_snapshot_matches_index; prop_batch_cached_equals_uncached ] );
  ]
