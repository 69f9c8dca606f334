(* Cold-read concurrency tests for the shared read path.

   The tentpole claim under test: one snapshot handle over the shared
   read-only page pool serves every reader domain, cold (label cache
   disabled), without wrong answers and without per-domain state.  The
   soak opens a snapshot with a deliberately tiny pool so eviction churn
   happens mid-flight, hammers it from [HOPI_SOAK_READERS] domains for
   [HOPI_SOAK_ITERS] rounds, and verifies every reach/dist/desc/anc
   answer against oracle matrices computed up front from the in-memory
   cover the store is loaded from and from the graph's transitive
   closure — independent of the stored query path under test.

   Also here: pool sharing across snapshot opens (closing one handle must
   not poison another's pages — per-open tags), and shared-pool metric
   attribution (the shared series moves, the private-pager series does
   not). *)

module Snapshot = Hopi_serve.Snapshot
module Pool = Hopi_util.Pool
module Digraph = Hopi_graph.Digraph
module Closure = Hopi_graph.Closure
module Builder = Hopi_twohop.Builder
module Dist_builder = Hopi_twohop.Dist_builder
module Pager = Hopi_storage.Pager
module Cover_store = Hopi_storage.Cover_store
module Cover = Hopi_twohop.Cover
module Dist_cover = Hopi_twohop.Dist_cover
module Int_set = Hopi_util.Int_set
module Splitmix = Hopi_util.Splitmix
module Ihs = Hopi_util.Int_hashset

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let soak_iters =
  match Sys.getenv_opt "HOPI_SOAK_ITERS" with
  | Some s -> (try max 10 (int_of_string s) with _ -> 12)
  | None -> 12

let soak_readers =
  match Sys.getenv_opt "HOPI_SOAK_READERS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 4)
  | None -> 4

(* a deterministic digraph with enough nodes that its cover spans many
   pages: layered DAG plus random skip links and a few back edges *)
let soak_graph ~n seed =
  let g = Digraph.create () in
  for v = 0 to n - 1 do
    Digraph.add_node g v
  done;
  let rng = Splitmix.create seed in
  for v = 1 to n - 1 do
    Digraph.add_edge g (Splitmix.int rng v) v
  done;
  for _ = 1 to 3 * n do
    let u = Splitmix.int rng n and v = Splitmix.int rng n in
    if u <> v then Digraph.add_edge g u v
  done;
  g

let with_store_file load f =
  let path = Filename.temp_file "hopi_test_coldpath" ".db" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists (path ^ "-journal") then Sys.remove (path ^ "-journal"))
    (fun () ->
      let pager = Pager.create ~pool_pages:64 ~fsync:false (Pager.File path) in
      let store = Cover_store.create pager in
      load store;
      Cover_store.save store;
      Pager.close pager;
      f path)

let sorted_ihs s = List.sort compare (Ihs.to_list s)

(* the oracle: every answer the soak will check, computed once before any
   domain is spawned — reach and dist by the in-memory cover the store is
   loaded from, desc and anc by the transitive closure *)
type oracle = {
  load : Cover_store.t -> unit; (* persists the cover the oracle answers for *)
  reach : bool array array;
  dist : int array array; (* -1 = unreachable *)
  desc : int list array;
  anc : int list array;
}

let oracle_of_graph ~dist g n =
  let clo = Closure.compute g in
  let load, reach, distance =
    if dist then begin
      let dc = fst (Dist_builder.build g) in
      ( (fun store -> Cover_store.load_dist_cover store dc),
        Dist_cover.connected dc, Dist_cover.dist dc )
    end
    else begin
      let c = fst (Builder.build clo) in
      ( (fun store -> Cover_store.load_cover store c),
        Cover.connected c,
        fun u v -> if Cover.connected c u v then Some 0 else None )
    end
  in
  {
    load;
    reach = Array.init n (fun u -> Array.init n (reach u));
    dist =
      Array.init n (fun u ->
          Array.init n (fun v -> Option.value ~default:(-1) (distance u v)));
    desc = Array.init n (fun u -> Int_set.to_list (Closure.succs clo u));
    anc = Array.init n (fun v -> Int_set.to_list (Closure.preds clo v));
  }

(* {1 The soak} *)

let run_soak ~dist () =
  let n = 96 in
  let g = soak_graph ~n 0xC01D in
  let oracle = oracle_of_graph ~dist g n in
  with_store_file oracle.load @@ fun path ->
  (* pool far smaller than the store's working set: misses and evictions
     mid-soak are the point — a page answers for one domain, gets
     evicted, and must read back verified for the next.  One shard and a
     2-page budget so even a compact plain cover (whose whole read path
     touches only a handful of pages) churns. *)
  let pool = Pager.Read_pool.create ~shards:1 ~pages:2 () in
  let snap = Snapshot.open_file ~pool ~cache_mb:0 path in
  Fun.protect ~finally:(fun () -> Snapshot.close snap) @@ fun () ->
  let total = Atomic.make 0 in
  let failures = Atomic.make 0 in
  let err_mu = Mutex.create () in
  let errs = ref [] in
  let record_err msg =
    Atomic.incr failures;
    Mutex.lock err_mu;
    if List.length !errs < 5 then errs := msg :: !errs;
    Mutex.unlock err_mu
  in
  let reader k =
    Domain.spawn (fun () ->
        let rng = Splitmix.create (0xC0FFEE + (k * 7919)) in
        try
          for _round = 1 to soak_iters do
            for _ = 1 to 128 do
              let u = Splitmix.int rng n and v = Splitmix.int rng n in
              let got = Snapshot.connected snap u v in
              if got <> oracle.reach.(u).(v) then
                record_err
                  (Printf.sprintf "reader %d: reach %d -> %d got %b oracle %b"
                     k u v got oracle.reach.(u).(v));
              let gd =
                match Snapshot.min_distance snap u v with Some d -> d | None -> -1
              in
              if gd <> oracle.dist.(u).(v) then
                record_err
                  (Printf.sprintf "reader %d: dist %d -> %d got %d oracle %d"
                     k u v gd oracle.dist.(u).(v));
              Atomic.incr total
            done;
            (* result-set scans exercise the backward indexes cold too *)
            let u = Splitmix.int rng n in
            if sorted_ihs (Snapshot.descendants snap u) <> oracle.desc.(u) then
              record_err (Printf.sprintf "reader %d: descendants %d diverged" k u);
            if sorted_ihs (Snapshot.ancestors snap u) <> oracle.anc.(u) then
              record_err (Printf.sprintf "reader %d: ancestors %d diverged" k u);
            Atomic.incr total
          done
        with exn ->
          record_err
            (Printf.sprintf "reader %d died: %s" k (Printexc.to_string exn)))
  in
  let readers = List.init soak_readers reader in
  List.iter Domain.join readers;
  (match !errs with
  | [] -> ()
  | e :: _ ->
    Alcotest.failf "%d cold-read failures, e.g.: %s" (Atomic.get failures) e);
  checkb "soak served queries" true (Atomic.get total > 0);
  let stats = Pager.Read_pool.stats (Snapshot.read_pool snap) in
  checkb "pool saw misses (cold path exercised)" true (stats.misses > 0);
  checkb "pool saw hits (pages shared between probes)" true (stats.hits > 0);
  checkb "pool evicted (churn exercised)" true (stats.evictions > 0);
  checkb "resident within budget" true (stats.resident <= stats.capacity)

let test_soak_plain () = run_soak ~dist:false ()

let test_soak_dist () = run_soak ~dist:true ()

(* {1 Pool sharing across opens} *)

(* two snapshots of the same store share one externally owned pool; pages
   are keyed per open (tags), so closing one handle drops only its own
   pages and the survivor keeps answering correctly *)
let test_pool_shared_across_opens () =
  let n = 16 in
  let g = soak_graph ~n 0x5EED in
  let oracle = oracle_of_graph ~dist:false g n in
  with_store_file oracle.load @@ fun path ->
  let pool = Pager.Read_pool.create ~pages:64 () in
  let a = Snapshot.open_file ~pool ~cache_mb:0 path in
  let b = Snapshot.open_file ~pool ~cache_mb:0 path in
  checkb "both handles share the pool" true
    (Snapshot.read_pool a == pool && Snapshot.read_pool b == pool);
  let verify snap =
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if Snapshot.connected snap u v <> oracle.reach.(u).(v) then
          Alcotest.failf "shared-pool snapshot wrong on %d -> %d" u v
      done
    done
  in
  verify a;
  verify b;
  Snapshot.close a;
  (* a's pages are dropped by tag; b must re-fault its own pages, never
     see a stale or foreign one *)
  verify b;
  Snapshot.close b

(* {1 Metric attribution} *)

(* cold reads through the shared path move only the shared-pool metric
   series; a concurrently open private pager's per-pager counters (and
   the private-pool global series) are untouched by them *)
let test_metric_attribution () =
  let n = 12 in
  let g = soak_graph ~n 0xA77B in
  let load store =
    Cover_store.load_cover store (fst (Builder.build (Closure.compute g)))
  in
  with_store_file load @@ fun path ->
  let counter name =
    Hopi_obs.Counter.get (Hopi_obs.Registry.counter name)
  in
  let priv = Pager.open_existing ~pool_pages:64 path in
  Fun.protect ~finally:(fun () -> Pager.close priv) @@ fun () ->
  let priv0 = Pager.stats priv in
  let private_hits0 = counter "hopi_storage_cache_hits_total"
  and private_misses0 = counter "hopi_storage_cache_misses_total"
  and shared_hits0 = counter "hopi_storage_shared_pool_hits_total"
  and shared_misses0 = counter "hopi_storage_shared_pool_misses_total" in
  let snap = Snapshot.open_file ~pool_pages:8 ~cache_mb:0 path in
  Fun.protect ~finally:(fun () -> Snapshot.close snap) @@ fun () ->
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      ignore (Snapshot.connected snap u v)
    done
  done;
  (* shared series moved... *)
  checkb "shared-pool misses attributed" true
    (counter "hopi_storage_shared_pool_misses_total" > shared_misses0);
  checkb "shared-pool hits attributed" true
    (counter "hopi_storage_shared_pool_hits_total" > shared_hits0);
  (* ...the private series did not *)
  checki "private-pool hit counter untouched by shared reads" private_hits0
    (counter "hopi_storage_cache_hits_total");
  checki "private-pool miss counter untouched by shared reads" private_misses0
    (counter "hopi_storage_cache_misses_total");
  let priv1 = Pager.stats priv in
  checki "private pager saw no hits" priv0.Pager.cache_hits priv1.Pager.cache_hits;
  checki "private pager saw no misses" priv0.Pager.cache_misses
    priv1.Pager.cache_misses;
  (* and the shared pager's own stats view reports pool-wide series with
     the write-side fields pinned to zero *)
  let pool = Pager.Read_pool.stats (Snapshot.read_pool snap) in
  checkb "pool stats coherent" true (pool.misses > 0 && pool.resident <= pool.capacity)

(* shared handles are read-only: every mutating pager entry point must
   refuse, so a bug cannot silently write through the shared pool *)
let test_shared_pager_rejects_writes () =
  let g = soak_graph ~n:8 0xBAD in
  let load store =
    Cover_store.load_cover store (fst (Builder.build (Closure.compute g)))
  in
  with_store_file load @@ fun path ->
  let pool = Pager.Read_pool.create ~pages:16 () in
  let pgr = Pager.open_shared ~pool path in
  Fun.protect ~finally:(fun () -> Pager.close pgr) @@ fun () ->
  checkb "shared pager reports read-only" true (Pager.read_only pgr);
  let rejects name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "shared pager accepted %s" name
  in
  rejects "alloc" (fun () -> Pager.alloc pgr);
  rejects "mark_dirty" (fun () -> Pager.mark_dirty pgr 1);
  rejects "commit" (fun () -> Pager.commit pgr)

(* the page budget is honoured whole when it does not divide by the shard
   count; only budgets below one page per shard round up *)
let test_pool_budget_remainder () =
  let capacity ?shards pages =
    (Pager.Read_pool.stats (Pager.Read_pool.create ?shards ~pages ())).capacity
  in
  checki "20 pages over 16 shards" 20 (capacity 20);
  checki "4096 pages" 4096 (capacity 4096);
  checki "2 pages, one shard" 2 (capacity ~shards:1 2);
  checki "one page per shard at least" 16 (capacity 5)

let suite =
  [
    ( "coldpath.soak",
      [
        Alcotest.test_case "multi-domain cold soak, plain cover" `Slow
          test_soak_plain;
        Alcotest.test_case "multi-domain cold soak, distance cover" `Slow
          test_soak_dist;
      ] );
    ( "coldpath.pool",
      [
        Alcotest.test_case "one pool shared across opens; close drops by tag"
          `Quick test_pool_shared_across_opens;
        Alcotest.test_case "shared vs private metric attribution" `Quick
          test_metric_attribution;
        Alcotest.test_case "shared pager rejects every write entry point"
          `Quick test_shared_pager_rejects_writes;
        Alcotest.test_case "budget remainder is kept" `Quick test_pool_budget_remainder;
      ] );
  ]
