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
   not poison another's pages — per-open tags), and read-pool metric
   attribution (snapshot reads move the snapshot's pool, not a separately
   opened pager's). *)

module Snapshot = Hopi_serve.Snapshot
module Pool = Hopi_util.Pool
module Digraph = Hopi_graph.Digraph
module Closure = Hopi_graph.Closure
module Builder = Hopi_twohop.Builder
module Dist_builder = Hopi_twohop.Dist_builder
module Pager = Hopi_storage.Pager
module Cover_store = Hopi_storage.Cover_store
module Cover = Hopi_twohop.Cover
module Int_set = Hopi_util.Int_set
module Splitmix = Hopi_util.Splitmix

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

(* the oracle: every answer the soak will check, computed once before any
   domain is spawned — reach and dist by the in-memory cover the store is
   loaded from, desc and anc by the transitive closure *)
type oracle = {
  load : Pager.t -> Cover_store.t; (* writes the cover the oracle answers for *)
  reach : bool array array;
  dist : int array array; (* -1 = unreachable *)
  desc : int list array;
  anc : int list array;
}

let oracle_of_graph ~dist g n =
  let clo = Closure.compute g in
  let c = if dist then fst (Dist_builder.build g) else fst (Builder.build clo) in
  let load pager = Cover_store.of_cover pager c
  and reach = Cover.connected c
  and distance = Cover.dist c in
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
            if yielded (Snapshot.iter_desc snap) u <> oracle.desc.(u) then
              record_err (Printf.sprintf "reader %d: descendants %d diverged" k u);
            if yielded (Snapshot.iter_anc snap) u <> oracle.anc.(u) then
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
  let stats = Pager.Read_pool.stats pool in
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
  let misses () = (Pager.Read_pool.stats pool).misses in
  let verify snap =
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if Snapshot.connected snap u v <> oracle.reach.(u).(v) then
          Alcotest.failf "shared-pool snapshot wrong on %d -> %d" u v
      done
    done
  in
  verify a;
  let after_a = misses () in
  checkb "a reads through the given pool" true (after_a > 0);
  verify b;
  checkb "b reads through the same pool" true (misses () > after_a);
  Snapshot.close a;
  (* a's pages are dropped by tag; b must re-fault its own pages, never
     see a stale or foreign one *)
  verify b;
  Snapshot.close b

(* {1 Metric attribution} *)

(* every pager reads through its own read pool: snapshot reads move the
   snapshot pool's stats (and the process-wide read-pool series), while a
   separately opened private pager's stats stay where they were *)
let test_metric_attribution () =
  let n = 12 in
  let g = soak_graph ~n 0xA77B in
  let load pager =
    Cover_store.of_cover pager (fst (Builder.build (Closure.compute g)))
  in
  with_store_file load @@ fun path ->
  let counter name =
    Hopi_obs.Counter.get (Hopi_obs.Registry.counter name)
  in
  let priv = Pager.open_existing ~pool_pages:64 path in
  Fun.protect ~finally:(fun () -> Pager.close priv) @@ fun () ->
  ignore (Cover_store.connected (Cover_store.open_pager priv) 0 1);
  let priv0 = Pager.stats priv in
  let hits0 = counter "hopi_storage_shared_pool_hits_total"
  and misses0 = counter "hopi_storage_shared_pool_misses_total" in
  let snap_pool = Pager.Read_pool.create ~pages:8 () in
  let snap = Snapshot.open_file ~pool:snap_pool ~cache_mb:0 path in
  Fun.protect ~finally:(fun () -> Snapshot.close snap) @@ fun () ->
  let pool0 = Pager.Read_pool.stats snap_pool in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      ignore (Snapshot.connected snap u v)
    done
  done;
  let pool = Pager.Read_pool.stats snap_pool in
  checkb "snapshot pool misses moved" true (pool.misses > pool0.misses);
  checkb "snapshot pool hits moved" true (pool.hits > pool0.hits);
  checkb "pool stats coherent" true (pool.resident <= pool.capacity);
  checkb "process-wide read-pool series moved" true
    (counter "hopi_storage_shared_pool_misses_total" > misses0
     && counter "hopi_storage_shared_pool_hits_total" > hits0);
  let priv1 = Pager.stats priv in
  checkb "private pager read before" true (priv0.Pager.disk_reads > 0);
  checki "private pager pool hits unmoved" priv0.Pager.pool.hits priv1.Pager.pool.hits;
  checki "private pager pool misses unmoved" priv0.Pager.pool.misses
    priv1.Pager.pool.misses;
  checki "private pager disk reads unmoved" priv0.Pager.disk_reads priv1.Pager.disk_reads

(* shared handles are read-only: every mutating pager entry point must
   refuse, so a bug cannot silently write through the shared pool *)
let test_shared_pager_rejects_writes () =
  let g = soak_graph ~n:8 0xBAD in
  let load pager =
    Cover_store.of_cover pager (fst (Builder.build (Closure.compute g)))
  in
  with_store_file load @@ fun path ->
  let pool = Pager.Read_pool.create ~pages:16 () in
  let pgr = Pager.open_shared ~pool path in
  Fun.protect ~finally:(fun () -> Pager.close pgr) @@ fun () ->
  let rejects name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "shared pager accepted %s" name
  in
  rejects "alloc" (fun () -> Pager.alloc pgr);
  rejects "write" (fun () -> Pager.write pgr 1 (Hopi_storage.Page.create ()));
  rejects "commit" (fun () -> Pager.commit pgr)

(* rebuilding a store at the path of an open snapshot publishes a new
   file under that name; the snapshot keeps reading the file it opened.
   A one-page pool and no label cache make every query read pages off
   the file, so a store rewritten in place would change the answers. *)
let test_rebuild_under_open_snapshot () =
  let n = 96 in
  let store_of seed pager =
    Cover_store.of_cover pager (fst (Builder.build (Closure.compute (soak_graph ~n seed))))
  in
  let pairs = List.init 400 (fun i -> ((i * 7919) mod n, ((i * 104729) + 13) mod n)) in
  let batch snap =
    List.map (fun (u, v) -> (Snapshot.connected snap u v, Snapshot.min_distance snap u v)) pairs
  in
  with_store_file (store_of 0x0DD) @@ fun path ->
  let open_snap () =
    Snapshot.open_file ~pool:(Pager.Read_pool.create ~shards:1 ~pages:1 ()) ~cache_mb:0 path
  in
  let snap = open_snap () in
  Fun.protect ~finally:(fun () -> Snapshot.close snap) @@ fun () ->
  let before = batch snap in
  let pager = Pager.create ~pool_pages:64 ~fsync:false (Pager.File path) in
  Cover_store.save (store_of 0xBEE pager);
  Pager.close pager;
  let fresh = open_snap () in
  let rebuilt = Fun.protect ~finally:(fun () -> Snapshot.close fresh) (fun () -> batch fresh) in
  checkb "the rebuilt store answers differently" true (rebuilt <> before);
  checkb "the open snapshot still answers from the store it opened" true (batch snap = before)

(* the page budget is honoured whole when it does not divide by the shard
   count, and a budget below 16 pages gets fewer shards rather than a
   one-page floor per shard; only a budget below one page rounds up *)
let test_pool_budget_remainder () =
  let capacity ?shards pages =
    (Pager.Read_pool.stats (Pager.Read_pool.create ?shards ~pages ())).capacity
  in
  checki "20 pages over 16 shards" 20 (capacity 20);
  checki "4096 pages" 4096 (capacity 4096);
  checki "2 pages, one shard" 2 (capacity ~shards:1 2);
  checki "5 pages, not one per default shard" 5 (capacity 5);
  checki "below one page" 1 (capacity 0)

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
        Alcotest.test_case "rebuilt store leaves an open snapshot unchanged" `Quick
          test_rebuild_under_open_snapshot;
      ] );
  ]
