(* Query-latency micro-benchmarks (bechamel): reachability through the
   in-memory cover, through the paged LIN/LOUT store, and by naive BFS —
   the per-query speedup that motivates a connection index in the first
   place — plus distance lookups and descendant enumeration, and the
   kernels under them: the page checksum every pool miss verifies, the
   integer hash set every desc/anc answer and cover build fills, and a hit
   in each of the two read-side caches (both instances of one LRU). *)

open Bechamel
open Toolkit
module Collection = Hopi_collection.Collection
module Cover = Hopi_twohop.Cover
module Traversal = Hopi_graph.Traversal
module Pager = Hopi_storage.Pager
module Cover_store = Hopi_storage.Cover_store
module Splitmix = Hopi_util.Splitmix
module Crc32 = Hopi_util.Crc32
module Ihs = Hopi_util.Int_hashset
module Label_cache = Hopi_serve.Label_cache
open Hopi_core

(* Warm hits, cycling over 64 resident entries: a label-cache find (key
   packing excluded), and a page read through a shared pager, i.e. a
   read-pool find plus the pager's bounds check. *)
let cache_tests () =
  let n = 64 in
  let cache = Label_cache.create ~capacity_bytes:(64 * 1024 * 1024) () in
  let keys = Array.init n (fun v -> Label_cache.key Label_cache.Lout v) in
  Array.iter (fun k -> Label_cache.add cache k (Bytes.make 24 '\001')) keys;
  let vfs = Hopi_storage.Vfs.memory () in
  let w = Pager.create_vfs ~vfs "micro.db" in
  for _ = 1 to n do
    ignore (Pager.alloc w)
  done;
  Pager.close w;
  let pool = Pager.Read_pool.create ~pages:4096 () in
  let r = Pager.open_shared_vfs ~vfs ~pool "micro.db" in
  for id = 0 to n - 1 do
    ignore (Pager.read r id)
  done;
  let i = ref 0 in
  let next () =
    i := (!i + 1) land (n - 1);
    !i
  in
  [
    Test.make ~name:"label_cache/find-hit" (Staged.stage (fun () ->
        Label_cache.find cache keys.(next ())));
    Test.make ~name:"read_pool/find-hit" (Staged.stage (fun () -> Pager.read r (next ())));
  ]

(* One page-miss check ([digest] over a page payload), and one batch of
   256 adds plus 256 lookups (half of them hits) into a reused set, the
   shape of a desc/anc answer being gathered. *)
let kernel_tests () =
  let page = Bytes.init 4096 (fun i -> Char.chr (((i * 131) + 7) land 0xFF)) in
  let rng = Splitmix.create 4242 in
  let keys = Array.init 512 (fun _ -> Splitmix.int rng 1_000_000) in
  let set = Ihs.create ~initial:256 () in
  [
    Test.make ~name:"crc32/page" (Staged.stage (fun () ->
        Crc32.digest page ~pos:8 ~len:4088));
    Test.make ~name:"int_hashset/add+mem" (Staged.stage (fun () ->
        Ihs.clear set;
        for i = 0 to 255 do
          Ihs.add set keys.(i)
        done;
        let hits = ref 0 in
        for i = 128 to 383 do
          if Ihs.mem set keys.(i) then incr hits
        done;
        !hits));
  ]

let make_tests (s : Bench_common.scale) =
  let c = Bench_common.dblp_collection (max 5 (s.Bench_common.small_docs / 2)) in
  let idx = Hopi.create c in
  let g = Collection.element_graph c in
  let store = Hopi.to_store idx (Pager.create ~pool_pages:256 Pager.Memory) in
  let cstore =
    let cs = Hopi_storage.Closure_store.create (Pager.create ~pool_pages:4096 Pager.Memory) in
    Hopi_storage.Closure_store.load cs (Hopi_graph.Closure.compute g);
    cs
  in
  let dstore =
    let st = Cover_store.create (Pager.create ~pool_pages:256 Pager.Memory) in
    Cover_store.load_dist_cover st (Hopi.distance_index idx);
    st
  in
  let rng = Splitmix.create 12345 in
  let els =
    let acc = ref [] in
    Collection.iter_elements c (fun e -> acc := e :: !acc);
    Array.of_list !acc
  in
  let n_pairs = 1024 in
  let pairs =
    Array.init n_pairs (fun _ -> (Splitmix.pick rng els, Splitmix.pick rng els))
  in
  let i = ref 0 in
  let next () =
    i := (!i + 1) land (n_pairs - 1);
    pairs.(!i)
  in
  let cover = Hopi.cover idx in
  Test.make_grouped ~name:"query"
    [
      Test.make ~name:"connected/cover" (Staged.stage (fun () ->
          let u, v = next () in
          ignore (Cover.connected cover u v)));
      Test.make ~name:"connected/store" (Staged.stage (fun () ->
          let u, v = next () in
          ignore (Cover_store.connected store u v)));
      Test.make ~name:"connected/bfs" (Staged.stage (fun () ->
          let u, v = next () in
          ignore (Traversal.is_reachable g u v)));
      Test.make ~name:"connected/closure-store" (Staged.stage (fun () ->
          let u, v = next () in
          ignore (Hopi_storage.Closure_store.connected cstore u v)));
      Test.make ~name:"min_distance/store" (Staged.stage (fun () ->
          let u, v = next () in
          ignore (Cover_store.min_distance dstore u v)));
      Test.make ~name:"descendants/cover" (Staged.stage (fun () ->
          let u, _ = next () in
          ignore (Cover.descendants cover u)));
    ]

(* Metric-recording overhead: a counter increment and a histogram sample
   must stay in the low-nanosecond range and allocate nothing, or the hot
   paths (reachability probes, page lookups) could not afford them. *)
let obs_overhead () =
  Bench_common.section "micro: observability recording overhead";
  let cnt =
    Hopi_obs.Registry.counter "hopi_micro_overhead_counter_total"
      ~help:"Micro-benchmark scratch counter"
  in
  let h =
    Hopi_obs.Registry.histogram "hopi_micro_overhead_histogram"
      ~help:"Micro-benchmark scratch histogram"
  in
  let n = 1_000_000 in
  for i = 1 to 1_000 do
    Hopi_obs.Counter.incr cnt;
    Hopi_obs.Histogram.observe h i
  done;
  let measure name f =
    let w0 = Gc.minor_words () in
    let t0 = Hopi_util.Timer.start () in
    f ();
    let ns = Int64.to_float (Hopi_util.Timer.elapsed_ns t0) in
    let words = Gc.minor_words () -. w0 in
    (name, ns /. float_of_int n, words /. float_of_int n)
  in
  let rows =
    [
      measure "counter.incr" (fun () ->
          for _ = 1 to n do
            Hopi_obs.Counter.incr cnt
          done);
      measure "histogram.observe" (fun () ->
          for i = 1 to n do
            Hopi_obs.Histogram.observe h i
          done);
    ]
  in
  Bench_common.print_table
    [ "benchmark"; "ns/op"; "minor words/op" ]
    (List.map
       (fun (name, ns, words) -> [ name; Fmt.str "%.1f" ns; Fmt.str "%.4f" words ])
       rows);
  List.iter
    (fun (name, _, words) ->
      (* a whole minor heap of slack for the measurement scaffolding itself;
         any per-op allocation would show up as >= 1.0 *)
      if words > 0.01 then
        failwith (Printf.sprintf "%s allocates %.4f words/op on the hot path" name words))
    rows;
  Bench_common.note "recording is allocation-free on the hot path."

let run (s : Bench_common.scale) =
  Bench_common.section "micro: query latency (bechamel)";
  obs_overhead ();
  let tests =
    Test.make_grouped ~name:"" ~fmt:"%s%s" (kernel_tests () @ cache_tests () @ [ make_tests s ])
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols (Instance.monotonic_clock) raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some [ est ] -> est
        | _ -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows = List.sort compare !rows in
  Bench_common.print_table
    [ "benchmark"; "ns/run" ]
    (List.map (fun (name, ns) -> [ name; Fmt.str "%.0f" ns ]) rows);
  Bench_common.note
    "the cover answers in microseconds where BFS needs a graph traversal."
