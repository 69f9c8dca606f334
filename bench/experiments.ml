(* One experiment per evaluation artifact of the paper (see DESIGN.md §4 and
   EXPERIMENTS.md).  Absolute numbers are measured on scaled-down synthetic
   collections; each experiment prints the paper's reference values next to
   the measured ones so the *shape* (who wins, by what factor) is auditable. *)

open Bench_common
module Collection = Hopi_collection.Collection
module Partitioning = Hopi_collection.Partitioning
module Cover = Hopi_twohop.Cover
module Dist_builder = Hopi_twohop.Dist_builder
module Verify = Hopi_twohop.Verify
module Weights = Hopi_partition.Weights
module Pager = Hopi_storage.Pager
module Cover_store = Hopi_storage.Cover_store
module Stats = Hopi_workload.Collection_stats
module Dblp = Hopi_workload.Dblp_gen
module Inex = Hopi_workload.Inex_gen
module Timer = Hopi_util.Timer
module Splitmix = Hopi_util.Splitmix
open Hopi_core

(* {1 Table 1: collection features} *)

let table1 (s : scale) =
  section "Table 1: features of the XML collections";
  let dblp = dblp_collection s.dblp_docs in
  let inex = inex_collection s.inex_docs in
  let row name c =
    let st = Stats.of_collection c in
    [
      name;
      string_of_int st.Stats.n_docs;
      string_of_int st.Stats.n_elements;
      string_of_int st.Stats.n_inter_links;
      Fmt.str "%.1fMB" (float_of_int st.Stats.size_bytes /. 1_048_576.0);
    ]
  in
  print_table
    [ "coll."; "#docs"; "#els"; "#links"; "size" ]
    [
      row "DBLP" dblp;
      [ "(paper"; "6,210"; "168,991"; "25,368"; "13.2MB)" ];
      row "INEX" inex;
      [ "(paper"; "12,232"; "12,061,348"; "408,085"; "534MB)" ];
    ];
  note "DBLP: one document per publication, citation XLinks; INEX: trees, no links.";
  note "paper rows are the full-size originals; measured rows are the scaled generators."

(* {1 Section 7.2 narrative: unpartitioned cover vs divide & conquer} *)

let closure_experiment (s : scale) =
  section "7.2 (text): transitive closure and the unpartitioned baseline";
  let c = dblp_collection s.small_docs in
  let tc = total_closure c in
  note "collection: %d docs, %d elements" (Collection.n_docs c) (Collection.n_elements c);
  note "transitive closure: %d connections (paper: 344,992,370)" tc;
  (* actually materialise the closure in the storage engine *)
  let closure_pager = Pager.create ~pool_pages:512 Pager.Memory in
  let cstore =
    Hopi_storage.Cover_store.of_closure closure_pager
      (Hopi_graph.Closure.compute (Collection.element_graph c))
  in
  note "materialised closure + backward index: %d integers on %d pages (paper: 1,379,969,480 integers)"
    (Hopi_storage.Cover_store.stored_integers cstore)
    (Pager.n_pages closure_pager);
  let flat, t_flat =
    Timer.time (fun () -> Build.build { Config.default with partitioner = Config.Whole } c)
  in
  let flat_size = Cover.size flat.Build.cover in
  note "";
  note "unpartitioned 2-hop cover: %d entries in %s  (compression %.1fx)" flat_size
    (seconds t_flat)
    (float_of_int tc /. float_of_int flat_size);
  note "  (paper: 1,289,930 entries, 45h23m, ~80GB RAM, compression ~267x)";
  let dc_config =
    {
      Config.baseline_edbt04 with
      partitioner = Config.Random_nodes (max 1 (Collection.n_elements c / 10));
    }
  in
  let dc, t_dc = Timer.time (fun () -> Build.build dc_config c) in
  let dc_size = Cover.size dc.Build.cover in
  note "old divide & conquer:       %d entries in %s  (compression %.1fx)" dc_size
    (seconds t_dc)
    (float_of_int tc /. float_of_int dc_size);
  note "  (paper: 15,976,677 entries, 3h10m, compression 21.6x)";
  note "";
  note "shape check: flat compresses ~%.0fx better but is ~%.0fx slower to build"
    (float_of_int dc_size /. float_of_int flat_size)
    (t_flat /. Float.max t_dc 1e-9)

(* {1 Table 2: build time and size across configurations} *)

let table2_configs c =
  let els = Collection.n_elements c in
  let tc = total_closure c in
  let pct whole p = max 1 (whole * p / 100) in
  [
    (* the paper's baseline: old partitioner + old incremental join *)
    ("baseline", Config.{ baseline_edbt04 with partitioner = Random_nodes (pct els 10) });
    (* Px: old partitioner (element-count limit at x% of elements), new join *)
    ("P5", Config.{ default with partitioner = Random_nodes (pct els 5); weight_scheme = Weights.Links });
    ("P10", Config.{ default with partitioner = Random_nodes (pct els 10); weight_scheme = Weights.Links });
    ("P20", Config.{ default with partitioner = Random_nodes (pct els 20); weight_scheme = Weights.Links });
    ("P50", Config.{ default with partitioner = Random_nodes (pct els 50); weight_scheme = Weights.Links });
    (* one document per partition *)
    ("single", Config.{ default with partitioner = Singleton });
    (* Nx: new closure-aware partitioner (connection limit at x‰ of the
       total closure), new join, connection-based weights *)
    ("N10", Config.{ default with partitioner = Closure_aware (pct tc 1) });
    ("N25", Config.{ default with partitioner = Closure_aware (max 1 (tc * 25 / 10000)) });
    ("N50", Config.{ default with partitioner = Closure_aware (pct tc 5 / 10) });
    ("N100", Config.{ default with partitioner = Closure_aware (pct tc 1 * 10) });
  ]

let table2 (s : scale) =
  section "Table 2: index build time and size per configuration";
  let c = dblp_collection s.dblp_docs in
  let tc = total_closure c in
  note "DBLP scale: %d docs, %d elements, closure %d connections"
    (Collection.n_docs c) (Collection.n_elements c) tc;
  note "Px = old partitioner at x%% of elements + PSG join;";
  note "Nx = closure-aware partitioner at x/1000 of the closure + PSG join;";
  note "baseline = old partitioner + old incremental join (EDBT'04).";
  let baseline_time = ref None in
  let rows =
    List.map
      (fun (name, config) ->
        let r, t = Timer.time (fun () -> Build.build config c) in
        if name = "baseline" then baseline_time := Some t;
        let size = Cover.size r.Build.cover in
        [
          name;
          seconds t;
          string_of_int size;
          Fmt.str "%.1f" (float_of_int tc /. float_of_int size);
          string_of_int r.Build.partitioning.Partitioning.n;
          (match !baseline_time with
           | Some bt when name <> "baseline" -> Fmt.str "%.1fx" (bt /. Float.max t 1e-9)
           | _ -> "-");
        ])
      (table2_configs c)
  in
  print_table [ "algorithm"; "time"; "size"; "compr."; "parts"; "speedup" ] rows;
  note "";
  note "paper (DBLP, Table 2): baseline 11,400s/15.98M entries (21.6x);";
  note "  P5 820.8s/9.98M (34.6x); P10 1,198.2s/10.00M; P20 2,286.8s/11.65M;";
  note "  P50 7,835.8s/12.03M; single 22,778s/12.38M (27.9x);";
  note "  N10 1,359.7s/10.00M (34.5x); N25 2,368.3s/10.60M; N50 3,635.8s/10.27M;";
  note "  N100 6,118.9s/12.78M (27.0x).";
  note "shape: new join beats the baseline by ~an order of magnitude in time and";
  note "  reduces the cover; mid-size partitions beat both tiny and huge ones."

(* {1 Section 4.2: center preselection} *)

let preselect (s : scale) =
  section "4.2 (text): preselecting cross-link targets as centers";
  let c = dblp_collection s.dblp_docs in
  let run p =
    let r, t =
      Timer.time (fun () ->
          Build.build { Config.default with preselect_link_targets = p } c)
    in
    (Cover.size r.Build.cover, t)
  in
  let with_size, with_t = run true in
  let without_size, without_t = run false in
  print_table
    [ "preselection"; "size"; "time" ]
    [
      [ "on"; string_of_int with_size; seconds with_t ];
      [ "off"; string_of_int without_size; seconds without_t ];
    ];
  note "paper: preselection decreased the cover by ~10,000 entries (marginal).";
  note "measured delta: %d entries" (without_size - with_size)

(* {1 Section 4.3: edge-weight schemes} *)

let weights (s : scale) =
  section "4.3 (text): edge weights for partitioning (links vs A*D vs A+D)";
  let c = dblp_collection s.dblp_docs in
  let tc = total_closure c in
  let rows =
    List.map
      (fun scheme ->
        let config =
          { Config.default with weight_scheme = scheme }
        in
        let r, t = Timer.time (fun () -> Build.build config c) in
        [
          Weights.scheme_name scheme;
          seconds t;
          string_of_int (Cover.size r.Build.cover);
          Fmt.str "%.1f" (float_of_int tc /. float_of_int (Cover.size r.Build.cover));
          string_of_int (List.length r.Build.partitioning.Partitioning.cross_links);
        ])
      Weights.all_schemes
  in
  print_table [ "weights"; "time"; "size"; "compr."; "cross-links" ] rows;
  note "paper: the new partitioner with A*D weights matched the old partitioner;";
  note "  other combinations were 'not as good'."

(* {1 Section 5: distance-aware index} *)

let distance (s : scale) =
  section "5: distance-aware cover (space overhead + sampling ablation)";
  let c = dblp_collection (max 5 (s.small_docs / 2)) in
  let g = Collection.element_graph c in
  note "collection: %d elements" (Collection.n_elements c);
  let plain, t_plain =
    Timer.time (fun () ->
        let clo = Hopi_graph.Closure.compute g in
        let cover, _ = Hopi_twohop.Builder.build clo in
        cover)
  in
  let (dist_sampled, st_sampled), t_sampled =
    Timer.time (fun () -> Dist_builder.build ~exact_threshold:0 g)
  in
  let (dist_exact, _), t_exact =
    Timer.time (fun () -> Dist_builder.build ~exact_threshold:max_int g)
  in
  let mismatches =
    List.length (Verify.dist_cover_vs_graph dist_sampled g)
    + List.length (Verify.dist_cover_vs_graph dist_exact g)
  in
  print_table
    [ "cover"; "entries"; "build"; "overhead" ]
    [
      [ "plain"; string_of_int (Cover.size plain); seconds t_plain; "1.00x" ];
      [
        "dist (sampled E)";
        string_of_int (Cover.size dist_sampled);
        seconds t_sampled;
        Fmt.str "%.2fx"
          (float_of_int (Cover.size dist_sampled) /. float_of_int (Cover.size plain));
      ];
      [
        "dist (exact E)";
        string_of_int (Cover.size dist_exact);
        seconds t_exact;
        Fmt.str "%.2fx"
          (float_of_int (Cover.size dist_exact) /. float_of_int (Cover.size plain));
      ];
    ];
  note "sampled-density estimates used for %d center candidates (cap %d samples, 98%% CI)"
    st_sampled.Dist_builder.sampled_nodes Dist_builder.max_samples;
  note "distance answers of both covers verified against BFS: %d mismatches" mismatches;
  if mismatches > 0 then failwith "distance: a distance cover disagrees with BFS";
  note "paper: low space overhead for including distance information";
  (* storage representation with DIST column *)
  let pager = Pager.create ~pool_pages:128 Pager.Memory in
  let store = Cover_store.of_cover pager dist_sampled in
  note "stored with DIST column: %d integers on %d pages"
    (Cover_store.stored_integers store)
    (Pager.n_pages pager)

(* {1 Section 7.3: index maintenance} *)

let maintenance (s : scale) =
  section "7.3: incremental maintenance (separation test, deletions, inserts)";
  (* non-separating deletions recompute a partial closure without divide &
     conquer (exactly as in the paper, Section 7.3), which dominates the
     runtime — the maintenance workload therefore runs at a reduced size *)
  let cfg = Dblp.default ~n_docs:(max 5 (s.small_docs * 3 / 5)) in
  let c = Dblp.generate cfg in
  (* fraction of separating documents + test time over the whole collection *)
  let docs = List.sort compare (Collection.doc_ids c) in
  let test_times = ref [] in
  let separating =
    List.filter
      (fun d ->
        let r, t = Timer.time (fun () -> Maintenance.separates c d) in
        test_times := t :: !test_times;
        r)
      docs
  in
  let frac = float_of_int (List.length separating) /. float_of_int (List.length docs) in
  note "DBLP %d docs: %.0f%% separate the collection (paper: ~60%%)"
    (List.length docs) (100.0 *. frac);
  note "separation test: avg %.2fms (paper: 2s on the full collection)"
    (1000.0 *. Hopi_util.Stats.mean (Array.of_list !test_times));
  (* deletions on a live index *)
  let idx = Hopi.create c in
  let rng = Splitmix.create 7 in
  let sep_times = ref [] and gen_times = ref [] and gen_recomp = ref [] in
  let deletions = 12 in
  for _ = 1 to deletions do
    let live = Array.of_list (List.sort compare (Collection.doc_ids (Hopi.collection idx))) in
    let victim = Splitmix.pick rng live in
    let st = Hopi.remove_document idx victim in
    if st.Maintenance.separating then sep_times := st.Maintenance.delete_seconds :: !sep_times
    else begin
      gen_times := st.Maintenance.delete_seconds :: !gen_times;
      gen_recomp := float_of_int st.Maintenance.recomputed_nodes :: !gen_recomp
    end
  done;
  let avg l = Hopi_util.Stats.mean (Array.of_list l) in
  note "";
  note "deleted %d random documents from the live index:" deletions;
  if !sep_times <> [] then
    note "  separating (fast path):    %d deletions, avg %.0fms (paper: ~13s)"
      (List.length !sep_times) (1000.0 *. avg !sep_times);
  if !gen_times <> [] then begin
    note "  non-separating (general):  %d deletions, avg %.1fs, avg %.0f nodes recomputed"
      (List.length !gen_times) (avg !gen_times) (avg !gen_recomp);
    note "  (paper: sometimes costlier than a rebuild — up to 5%% of the closure recomputed)"
  end;
  (* insertions: put fresh documents back in *)
  let ins_times = ref [] in
  for i = 0 to 5 do
    let name = Dblp.doc_name (cfg.Dblp.n_docs + i) in
    let xml = Dblp.document_xml cfg (cfg.Dblp.n_docs + i) in
    let _, t =
      Timer.time (fun () ->
          match Hopi.insert_document_xml idx ~name xml with
          | Ok id -> id
          | Error _ -> assert false)
    in
    ins_times := t :: !ins_times
  done;
  note "  document insertion:        avg %.0fms (new partition + incremental merge)"
    (1000.0 *. avg !ins_times);
  (* INEX: no links -> every document separates *)
  let inex = inex_collection s.inex_docs in
  let all_sep = List.for_all (fun d -> Maintenance.separates inex d) (Collection.doc_ids inex) in
  note "";
  note "INEX (%d docs, no links): every document separates: %b (paper: 100%%)"
    (Collection.n_docs inex) all_sep

(* {1 Section 7.2: INEX cover} *)

let inex_experiment (s : scale) =
  section "7.2 (text): INEX cover size";
  let c = inex_collection s.inex_docs in
  note "INEX scale: %d docs, %d elements (tree-only)" (Collection.n_docs c)
    (Collection.n_elements c);
  let r, t = Timer.time (fun () -> Build.build Config.default c) in
  let size = Cover.size r.Build.cover in
  let per_node = float_of_int size /. float_of_int (Collection.n_elements c) in
  note "cover: %d entries in %s -> %.2f entries per node" size (seconds t) per_node;
  note "paper: 33,701,084 entries in ~4h, <3 entries per node";
  note "shape check: entries per node below 3: %b" (per_node < 3.0)

(* {1 Extension: FliX-style hybrid index (paper §8 future work)} *)

let flix (s : scale) =
  section "extension: FliX hybrid (tree intervals + skeleton cover) vs full HOPI";
  (* the skeleton cover is built flat (no divide & conquer), so this
     extension runs at a reduced scale *)
  let c = dblp_collection (s.dblp_docs / 2) in
  let hopi, t_hopi = Timer.time (fun () -> Hopi.create c) in
  let fx, t_flix = Timer.time (fun () -> Hopi_flix.Flix.build c) in
  let st = Hopi_flix.Flix.stats fx in
  note "collection: %d elements, %d links; skeleton: %d nodes, %d edges"
    (Collection.n_elements c) (Collection.n_links c) st.Hopi_flix.Flix.skeleton_nodes
    st.Hopi_flix.Flix.skeleton_edges;
  (* query latency over random pairs *)
  let rng = Splitmix.create 3 in
  let els =
    let acc = ref [] in
    Collection.iter_elements c (fun e -> acc := e :: !acc);
    Array.of_list !acc
  in
  let n_queries = 20_000 in
  let pairs =
    Array.init n_queries (fun _ -> (Splitmix.pick rng els, Splitmix.pick rng els))
  in
  let agree = ref true in
  let bench_queries f =
    let _, t =
      Timer.time (fun () -> Array.iter (fun (u, v) -> ignore (f u v)) pairs)
    in
    1e9 *. t /. float_of_int n_queries
  in
  let hopi_ns = bench_queries (Hopi.connected hopi) in
  let flix_ns = bench_queries (Hopi_flix.Flix.connected fx) in
  Array.iter
    (fun (u, v) ->
      if Hopi.connected hopi u v <> Hopi_flix.Flix.connected fx u v then agree := false)
    pairs;
  print_table
    [ "index"; "entries"; "build"; "ns/query" ]
    [
      [ "HOPI (full)"; string_of_int (Hopi.size hopi); seconds t_hopi;
        Fmt.str "%.0f" hopi_ns ];
      [ "FliX hybrid"; string_of_int (Hopi_flix.Flix.size fx); seconds t_flix;
        Fmt.str "%.0f" flix_ns ];
    ];
  note "answers agree on all %d random pairs: %b" n_queries !agree;
  note "the hybrid keeps ~%.1f%% of the entries at ~%.1fx the query latency"
    (100.0 *. float_of_int (Hopi_flix.Flix.size fx) /. float_of_int (Hopi.size hopi))
    (flix_ns /. Float.max hopi_ns 1e-9)

(* {1 Ablation: PSG H̄ strategies} *)

(* node -> (Lin, Lout), ascending: two covers are the same entry for
   entry iff their canonical forms are equal *)
let canonical cover =
  List.sort compare (Cover.nodes cover)
  |> List.map (fun v ->
         (v, Hopi_util.Int_set.to_list (Cover.lin cover v), Hopi_util.Int_set.to_list (Cover.lout cover v)))

let psg_strategies (s : scale) =
  section "ablation: PSG join H̄ strategies (one PSG closure vs recursive partitioning)";
  let c = dblp_collection s.dblp_docs in
  let run name joiner =
    let config =
      { Config.default with partitioner = Config.Random_nodes 400; joiner }
    in
    let r, t = Timer.time (fun () -> Build.build config c) in
    (canonical r.Build.cover, [ name; seconds t; string_of_int (Cover.size r.Build.cover) ])
  in
  let runs =
    [
      run "one PSG closure" Config.Psg;
      run "partitioned (1k conns)" (Config.Psg_partitioned 1_000);
      run "partitioned (100k conns)" (Config.Psg_partitioned 100_000);
    ]
  in
  print_table [ "H̄ strategy"; "time"; "size" ] (List.map snd runs);
  let one = fst (List.hd runs) in
  if List.exists (fun (other, _) -> other <> one) runs then
    failwith "psg_strategies: the H̄ strategies built different covers";
  note "all three covers are identical, entry for entry; the recursion bounds";
  note "the memory of the PSG closure at some extra bookkeeping cost (Section 4.1)."

(* {1 Parallel per-partition covers (Section 4.3)} *)

let parallel (s : scale) =
  section "4.3 (text): concurrent per-partition cover computation";
  let c = dblp_collection s.dblp_docs in
  let cores = Domain.recommended_domain_count () in
  note "this machine reports %d recommended domain(s)" cores;
  let run jobs =
    let config =
      { Config.default with partitioner = Config.Closure_aware 20_000; jobs }
    in
    let r, t = Timer.time (fun () -> Build.build config c) in
    [ string_of_int jobs; seconds t; Fmt.str "%.2f" r.Build.cover_seconds;
      string_of_int (Cover.size r.Build.cover) ]
  in
  print_table
    [ "jobs"; "total"; "covers phase"; "size" ]
    [ run 1; run 2; run 4 ];
  note "paper: the closure-aware partitioner yields partitions of similar";
  note "  closure size, so n CPUs give a speedup close to n for the cover";
  note "  phase (the old partitioner is limited by its largest partition).";
  if cores = 1 then
    note "NOTE: only one core is available here, so no speedup is observable."

(* {1 Parallel build: jobs=1 vs jobs=N (Section 4.3 + domain pool)} *)

(* a cheap structural fingerprint of a cover: equal fingerprints over the
   canonical (node-sorted, label-sorted) form attest the jobs=1 and jobs=N
   builds produced the same cover *)
let cover_fingerprint cover =
  List.fold_left
    (fun acc (v, lin, lout) -> (acc * 1_000_003) lxor Hashtbl.hash (v, (lin, lout)))
    0 (canonical cover)

let parallel_build (s : scale) =
  section "parallel build: jobs=1 vs jobs=N, bulk store write";
  (* 3x the documents of the other experiments gives ~10x the join work of
     the earlier revision of this experiment — enough that the pipeline
     phases (join.psg.sort/merge/bulk) dominate the build *)
  let c = dblp_collection (3 * s.dblp_docs) in
  let cores = Domain.recommended_domain_count () in
  note "collection: %d docs, %d elements" (Collection.n_docs c)
    (Collection.n_elements c);
  note "this machine reports %d recommended domain(s); measuring jobs=%d" cores
    s.jobs;
  let config jobs =
    { Config.default with partitioner = Config.Closure_aware 20_000; jobs }
  in
  let row label cfg =
    let r, t = Timer.time (fun () -> Build.build cfg c) in
    let speedup cpu wall = cpu /. Float.max 1e-9 wall in
    ( r, t,
      [
        label; seconds t; seconds r.Build.cover_seconds;
        Fmt.str "%.2fx" (speedup r.Build.cover_cpu_seconds r.Build.cover_seconds);
        seconds r.Build.join_seconds;
        Fmt.str "%.2fx" (speedup r.Build.join_cpu_seconds r.Build.join_seconds);
        string_of_int (Cover.size r.Build.cover);
      ] )
  in
  let jn = max 2 s.jobs in
  let r1, t1, row1 = row "1" (config 1) in
  let rn, tn, rown = row (string_of_int jn) (config jn) in
  print_table
    [ "jobs"; "total"; "covers"; "cover speedup"; "join"; "join speedup"; "size" ]
    [ row1; rown ];
  let f1 = cover_fingerprint r1.Build.cover
  and fn = cover_fingerprint rn.Build.cover in
  if Cover.size r1.Build.cover <> Cover.size rn.Build.cover || f1 <> fn then
    failwith "parallel build produced a different cover than the sequential one";
  note "covers are identical (size %d, fingerprint %x) across jobs"
    (Cover.size r1.Build.cover) f1;
  (* store write: the cover as one row per node and per center, each page
     written once, as `hopi build --store` writes it *)
  let vfs = Hopi_storage.Vfs.memory () in
  let pager = Hopi_storage.Pager.create_vfs ~vfs "bench-store.db" in
  let store, t_store =
    Timer.time (fun () ->
        let store = Hopi_storage.Cover_store.of_cover pager r1.Build.cover in
        Hopi_storage.Cover_store.save store;
        store)
  in
  note "bulk store write: %s for %d entries" (seconds t_store)
    (Hopi_storage.Cover_store.n_entries store);
  Hopi_storage.Pager.close pager;
  let g name v = Hopi_obs.Gauge.set (Hopi_obs.Registry.gauge name) v in
  let ms t = int_of_float (1000.0 *. t) in
  g "bench_build_total_ms_jobs1" (ms t1);
  g "bench_build_total_ms_jobsN" (ms tn);
  g "bench_build_join_ms_jobsN" (ms rn.Build.join_seconds);
  g "bench_build_store_write_ms" (ms t_store);
  if cores = 1 then
    note "NOTE: only one core is available here, so no speedup is observable."

(* {1 Ablation: lazy priority queue (Section 3.2)} *)

let lazy_queue (s : scale) =
  section "ablation: lazy priority queue vs recomputing every density each round";
  let c = dblp_collection (max 5 (s.small_docs / 3)) in
  let g = Collection.element_graph c in
  let clo = Hopi_graph.Closure.compute g in
  note "collection: %d elements, closure %d connections" (Collection.n_elements c)
    (Hopi_graph.Closure.n_connections clo);
  let (lazy_cover, lazy_stats), t_lazy =
    Timer.time (fun () -> Hopi_twohop.Builder.build clo)
  in
  let (eager_cover, eager_stats), t_eager =
    Timer.time (fun () -> Hopi_twohop.Builder.build_eager clo)
  in
  print_table
    [ "variant"; "time"; "size"; "densest computations" ]
    [
      [ "lazy queue (paper)"; seconds t_lazy; string_of_int (Cover.size lazy_cover);
        string_of_int lazy_stats.Hopi_twohop.Builder.recomputations ];
      [ "recompute all"; seconds t_eager; string_of_int (Cover.size eager_cover);
        string_of_int eager_stats.Hopi_twohop.Builder.recomputations ];
    ];
  if canonical lazy_cover <> canonical eager_cover then
    failwith "lazy_queue: the lazy and the eager loop built different covers";
  note "both covers are identical, entry for entry; the paper's lazy queue needs";
  note "  ~%.0fx fewer densest-subgraph computations"
    (float_of_int eager_stats.Hopi_twohop.Builder.recomputations
    /. Float.max 1.0 (float_of_int lazy_stats.Hopi_twohop.Builder.recomputations))

(* {1 Storage durability: publish latency, fsync cost, crash mid-publish} *)

(* Every page file is published the same way: written to [path.tmp],
   fsynced, renamed over [path], and the directory fsynced.  Measured
   here: that publication, over a previous store at the same path, with
   and without its sync points; then a crash in the middle of one,
   after which the previous store must still pass verify-store's
   checks. *)
let storage_durability (s : scale) =
  section "storage durability: publish latency, fsync cost, crash mid-publish";
  let module Vfs = Hopi_storage.Vfs in
  let n_docs = max 5 (s.small_docs / 2) in
  let cover_of c = (Build.build Config.default c).Build.cover in
  let c = dblp_collection n_docs in
  let cover = cover_of c in
  note "collection: %d elements, cover %d entries" (Collection.n_elements c)
    (Cover.size cover);
  let reps = 5 in
  let row fsync =
    let path = Filename.temp_file "hopi_dur" ".db" in
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ path; Vfs.tmp_path path ])
      (fun () ->
        let runs =
          Array.init reps (fun _ ->
              let pager = Pager.create ~fsync (Pager.File path) in
              let (), t =
                Timer.time (fun () -> Cover_store.save (Cover_store.of_cover pager cover))
              in
              let st = Pager.stats pager in
              Pager.close pager;
              (t, st))
        in
        let ms = Array.map (fun (t, _) -> 1000.0 *. t) runs in
        let lo, hi = Hopi_util.Stats.min_max ms in
        let _, st = runs.(0) in
        [
          (if fsync then "on" else "off");
          Fmt.str "%.1fms" (Hopi_util.Stats.percentile ms 50.0);
          Fmt.str "%.1f-%.1fms" lo hi;
          string_of_int st.Pager.fsyncs;
          string_of_int st.Pager.pages;
        ])
  in
  print_table
    [ "fsync"; "publish p50"; "range"; "fsyncs"; "pages" ]
    [ row true; row false ];
  note "publish: store written to a temp file and renamed over the previous one; %d runs each." reps;
  note "fsync=off still publishes by rename (process-crash-safe) but issues no sync points.";
  (* crash mid-publish: publish a different store over the first one on a
     fault-injecting VFS, crash half-way through, and run verify-store's
     checks (every page checksum, then the catalog) on the path *)
  let module Fv = Hopi_fault_vfs.Fault_vfs in
  let fv = Fv.create () in
  let vfs = Fv.vfs fv in
  let publish cover =
    let pager = Pager.create_vfs ~vfs "dur.db" in
    Cover_store.save (Cover_store.of_cover pager cover);
    Pager.close pager
  in
  publish cover;
  let old_bytes = Vfs.read_file vfs "dur.db" in
  let next = cover_of (dblp_collection (n_docs + 1)) in
  let s1 = Fv.snapshot fv in
  Fv.reset_ops fv;
  publish next;
  let n_ops = Fv.op_count fv in
  let crash_at = n_ops / 2 in
  Fv.restore fv s1;
  Fv.reset_ops fv;
  Fv.arm_crash fv ~op:crash_at ~mode:Fv.Drop_unsynced ();
  (match publish next with
  | () -> failwith "storage_durability: crash did not fire"
  | exception Fv.Crash -> ());
  let pgr = Pager.open_existing ~pool_pages:64 ~vfs "dur.db" in
  let clean = Pager.verify_pages pgr = [] in
  let reopened = Cover_store.open_pager pgr in
  let unchanged = Vfs.read_file vfs "dur.db" = old_bytes in
  note "crash injected at op %d/%d of a publication over the store;" crash_at n_ops;
  note "previous store: %d pages verify clean: %b; catalog ok, %d entries; bytes unchanged: %b"
    (Pager.n_pages pgr) clean (Cover_store.n_entries reopened) unchanged;
  Pager.close pgr;
  if not (clean && unchanged) then failwith "storage_durability: previous store damaged";
  if Cover_store.n_entries reopened <> Cover.size cover then
    failwith "storage_durability: previous store lost entries"

(* {1 Serving: batch query throughput, cold vs warm label cache} *)

(* The serving layer's pitch is that a warm label cache turns every probe
   into two in-memory array merges, where a cold snapshot pays a B+-tree
   range scan per label set.  Measured here end to end: persist a cover,
   re-open it read-only, and push identical query batches through a cold
   (cache disabled) and a warm (cache pre-touched) snapshot at several
   pool sizes, on both a uniform and a Zipf-skewed workload.  Every
   answer is checked against a sequential, uncached Cover_store oracle. *)
let query_throughput (s : scale) =
  section "serving: batch query throughput, cold vs warm label cache";
  let module Serve = Hopi_serve in
  let module Query_gen = Hopi_workload.Query_gen in
  let module Pool = Hopi_util.Pool in
  let c = dblp_collection s.dblp_docs in
  let r = Build.build Config.default c in
  let path = Filename.temp_file "hopi_qtp" ".db" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  (* persist exactly as [hopi build --store] would *)
  let pager = Pager.create ~fsync:false (Pager.File path) in
  Cover_store.save (Cover_store.of_cover pager r.Build.cover);
  Pager.close pager;
  let nodes =
    let acc = ref [] in
    Collection.iter_elements c (fun e -> acc := e :: !acc);
    Array.of_list !acc
  in
  note "collection: %d elements, cover %d entries, stored at %s"
    (Array.length nodes) (Cover.size r.Build.cover) path;
  let n_q = max 2_000 (int_of_float (20_000.0 *. float_of_int s.dblp_docs /. 500.0)) in
  (* alternate reachability and distance probes over the same pair stream *)
  let queries_of pairs =
    Array.mapi
      (fun i (u, v) ->
        if i land 1 = 0 then Serve.Batch.Reach (u, v) else Serve.Batch.Dist (u, v))
      pairs
  in
  let workloads =
    [
      ("uniform", queries_of (Query_gen.uniform_pairs ~seed:11 ~nodes ~n:n_q));
      ( "zipf",
        queries_of
          (Query_gen.zipf_pairs ~theta:Query_gen.default_theta ~seed:12 ~nodes
             ~n:n_q) );
    ]
  in
  (* sequential, uncached oracle straight off the B+-trees *)
  let oracle queries =
    let pgr = Pager.open_existing ~pool_pages:256 path in
    Fun.protect ~finally:(fun () -> Pager.close pgr) @@ fun () ->
    let st = Cover_store.open_pager pgr in
    Array.map
      (fun q ->
        match q with
        | Serve.Batch.Reach (u, v) -> Serve.Batch.Bool (Cover_store.connected st u v)
        | Serve.Batch.Dist (u, v) ->
          Serve.Batch.Distance (Cover_store.min_distance st u v)
        | _ -> assert false)
      queries
  in
  let qps n t = float_of_int n /. Float.max t 1e-9 in
  let mismatches = ref 0 in
  let rows = ref [] in
  let jobs_list = [ 1; 2; 4 ] in
  (* cold qps per (workload, jobs), for the cold-scaling gauges below *)
  let cold_tbl = Hashtbl.create 8 in
  List.iter
    (fun (wname, queries) ->
      let expected = oracle queries in
      List.iter
        (fun jobs ->
          (* cold: caching disabled, every probe pays the B+-tree scans *)
          let cold_qps =
            let snap = Serve.Snapshot.open_file ~cache_mb:0 path in
            Fun.protect ~finally:(fun () -> Serve.Snapshot.close snap) @@ fun () ->
            Pool.with_pool ~jobs @@ fun pool ->
            let answers, t =
              Timer.time (fun () -> Serve.Batch.eval_batch ~pool snap queries)
            in
            if answers <> expected then incr mismatches;
            qps n_q t
          in
          (* warm: run the batch once to populate the cache, then measure *)
          let warm_qps, hit_pct =
            let snap = Serve.Snapshot.open_file ~cache_mb:64 path in
            Fun.protect ~finally:(fun () -> Serve.Snapshot.close snap) @@ fun () ->
            Pool.with_pool ~jobs @@ fun pool ->
            ignore (Serve.Batch.eval_batch ~pool snap queries);
            let h0 = Hopi_obs.Counter.get (Serve.Label_cache.hits ())
            and m0 = Hopi_obs.Counter.get (Serve.Label_cache.misses ()) in
            let answers, t =
              Timer.time (fun () -> Serve.Batch.eval_batch ~pool snap queries)
            in
            if answers <> expected then incr mismatches;
            let h = Hopi_obs.Counter.get (Serve.Label_cache.hits ()) - h0
            and m = Hopi_obs.Counter.get (Serve.Label_cache.misses ()) - m0 in
            (qps n_q t, 100 * h / max 1 (h + m))
          in
          let speedup = warm_qps /. Float.max cold_qps 1e-9 in
          let g name v =
            Hopi_obs.Gauge.set
              (Hopi_obs.Registry.gauge
                 (Printf.sprintf "bench_query_%s_%s_jobs%d" name wname jobs))
              v
          in
          g "cold_qps" (int_of_float cold_qps);
          g "warm_qps" (int_of_float warm_qps);
          g "warm_speedup_pct" (int_of_float (100.0 *. speedup));
          Hashtbl.replace cold_tbl (wname, jobs) cold_qps;
          rows :=
            [
              wname; string_of_int jobs;
              Fmt.str "%.0f" cold_qps; Fmt.str "%.0f" warm_qps;
              Fmt.str "%.2fx" speedup; Fmt.str "%d%%" hit_pct;
            ]
            :: !rows)
        jobs_list)
    workloads;
  print_table
    [ "workload"; "jobs"; "cold q/s"; "warm q/s"; "speedup"; "hit rate" ]
    (List.rev !rows);
  note "%d queries per batch (reach/dist alternating); cold = cache disabled," n_q;
  note "warm = same batch re-run after one priming pass; oracle = sequential";
  note "uncached Cover_store probes.";
  note "answer mismatches against the oracle: %d" !mismatches;
  if !mismatches > 0 then failwith "query_throughput: answers diverge from the oracle";
  (* the cold-scaling gate: cold throughput must not fall as reader
     domains are added — the shared read path's whole point.  Published
     as a percentage (jobs=4 cold qps / jobs=1 cold qps) so the bench
     regression gate can hold the line at > 100 on multi-core runners. *)
  List.iter
    (fun (wname, _) ->
      match
        ( Hashtbl.find_opt cold_tbl (wname, 1),
          Hashtbl.find_opt cold_tbl (wname, 4) )
      with
      | Some c1, Some c4 ->
        let pct = 100.0 *. c4 /. Float.max c1 1e-9 in
        Hopi_obs.Gauge.set
          (Hopi_obs.Registry.gauge
             (Printf.sprintf "bench_query_cold_scaling_pct_%s" wname))
          (int_of_float pct);
        note "cold scaling (%s): jobs=4 runs at %.0f%% of jobs=1" wname pct
      | _ -> ())
    workloads;
  if Domain.recommended_domain_count () < 4 then
    note
      "NOTE: %d core(s) available — cold-scaling percentages are not \
       meaningful here; the CI gate runs on a 4-core runner."
      (Domain.recommended_domain_count ())

(* {1 Live serving: generational flips under churn} *)

(* The zero-downtime pitch, measured end to end.  Three throughput numbers
   and a flip-latency distribution:
   - direct: batches on one pinned snapshot (the no-indirection ceiling);
   - generational: the same batches through acquire/release per batch;
   - churn: the same read loop while a writer domain applies link churn
     and flips generations continuously.
   The gap between direct and generational is the cost of the swap
   indirection; the gap to churn is what flips cost the read side. *)
let live_maintenance (s : scale) =
  section "live serving: generational store swap under churn";
  let module Serve = Hopi_serve in
  let module G = Serve.Generation in
  let module Manifest = Hopi_storage.Manifest in
  let module Pool = Hopi_util.Pool in
  let module Query_gen = Hopi_workload.Query_gen in
  let c = dblp_collection (max 40 (s.dblp_docs / 4)) in
  let idx = Hopi.create c in
  let base = Filename.temp_file "hopi_live" ".db" in
  Sys.remove base;
  Fun.protect
    ~finally:(fun () ->
      let rm p = if Sys.file_exists p then Sys.remove p in
      rm (Manifest.path ~base);
      for k = 0 to 64 do
        rm (Manifest.gen_path ~base k)
      done)
  @@ fun () ->
  let gen = G.create ~fsync:false ~cache_mb:32 ~retain:0 ~base idx in
  Fun.protect ~finally:(fun () -> G.close gen) @@ fun () ->
  let nodes =
    let acc = ref [] in
    Collection.iter_elements c (fun e -> acc := e :: !acc);
    Array.of_list !acc
  in
  let n_q = 5_000 in
  let queries =
    Array.map
      (fun (u, v) -> Serve.Batch.Reach (u, v))
      (Query_gen.uniform_pairs ~seed:17 ~nodes ~n:n_q)
  in
  let qps n t = float_of_int n /. Float.max t 1e-9 in
  Pool.with_pool ~jobs:s.jobs @@ fun pool ->
  let direct_qps =
    let snap = G.acquire gen in
    Fun.protect ~finally:(fun () -> G.release gen snap) @@ fun () ->
    ignore (Serve.Batch.eval_batch ~pool snap queries);
    let _, t = Timer.time (fun () -> Serve.Batch.eval_batch ~pool snap queries) in
    qps n_q t
  in
  let gen_qps =
    ignore (G.with_snapshot gen (fun snap -> Serve.Batch.eval_batch ~pool snap queries));
    let _, t =
      Timer.time (fun () ->
          G.with_snapshot gen (fun snap -> Serve.Batch.eval_batch ~pool snap queries))
    in
    qps n_q t
  in
  (* churn: a writer domain applies link bursts and flips [n_flips] times
     while this domain keeps reading through acquire/release *)
  let n_flips = 10 in
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let rng = Splitmix.create 23 in
        let stats = ref [] in
        for _ = 1 to n_flips do
          for _ = 1 to 8 do
            let u = nodes.(Splitmix.int rng (Array.length nodes))
            and v = nodes.(Splitmix.int rng (Array.length nodes)) in
            ignore (G.apply gen (G.Add_link (u, v)))
          done;
          let st = G.flip gen in
          stats := st :: !stats
        done;
        Atomic.set stop true;
        List.rev !stats)
  in
  let batches = ref 0 in
  let _, t_churn =
    Timer.time (fun () ->
        while not (Atomic.get stop) do
          ignore
            (G.with_snapshot gen (fun snap -> Serve.Batch.eval_batch ~pool snap queries));
          incr batches
        done)
  in
  let flip_stats = Domain.join writer in
  let churn_qps = qps (max 1 !batches * n_q) t_churn in
  let flip_ns = List.sort compare (List.map (fun st -> st.G.duration_ns) flip_stats) in
  let p50 = List.nth flip_ns (List.length flip_ns / 2) in
  let fmax = List.fold_left max 0 flip_ns in
  let dirtied = List.fold_left (fun a st -> a + st.G.dirtied) 0 flip_stats in
  let invalidated = List.fold_left (fun a st -> a + st.G.invalidated) 0 flip_stats in
  let g name v = Hopi_obs.Gauge.set (Hopi_obs.Registry.gauge name) v in
  g "bench_live_direct_qps" (int_of_float direct_qps);
  g "bench_live_gen_qps" (int_of_float gen_qps);
  g "bench_live_churn_qps" (int_of_float churn_qps);
  g "bench_live_flip_p50_ns" p50;
  g "bench_live_flip_max_ns" fmax;
  print_table
    [ "mode"; "q/s"; "vs direct" ]
    [
      [ "direct (pinned snapshot)"; Fmt.str "%.0f" direct_qps; "1.00x" ];
      [
        "generational (acquire/release)";
        Fmt.str "%.0f" gen_qps;
        Fmt.str "%.2fx" (gen_qps /. Float.max direct_qps 1e-9);
      ];
      [
        "under churn (writer flipping)";
        Fmt.str "%.0f" churn_qps;
        Fmt.str "%.2fx" (churn_qps /. Float.max direct_qps 1e-9);
      ];
    ];
  note "%d elements, %d reach queries per batch, jobs=%d" (Array.length nodes)
    n_q s.jobs;
  note "%d flips while serving: p50 %.2fms, max %.2fms; %d nodes dirtied, %d \
        cache entries invalidated"
    n_flips
    (float_of_int p50 /. 1e6)
    (float_of_int fmax /. 1e6)
    dirtied invalidated;
  note "final generation %d (tip %d), %d read batches completed during churn"
    (G.live gen) (G.tip gen) !batches;
  if G.live gen <> n_flips then failwith "live_maintenance: flips lost"

(* {1 Socket serving: scatter-gather over 1 vs K shards} *)

(* The networked path measured end to end: split the collection into 1
   and 4 shards, serve each over a Unix socket, and drive the same
   deterministic request streams from concurrent client domains.  The
   1-shard run prices the socket front-end itself (framing, admission,
   one router hop); the 4-shard run adds cross-shard scatter-gather and
   PSG routing on top.  Both answer streams must be identical — the
   differential lives in the test suite, but the bench re-checks it at
   bench scale for free. *)
let socket_throughput (s : scale) =
  section "serving: socket front-end, 1 vs K shards";
  let module Serve = Hopi_serve in
  let module Router = Serve.Router in
  let module Server = Serve.Server in
  let module Client = Serve.Client in
  let module Pool = Hopi_util.Pool in
  let c = dblp_collection (max 40 (s.dblp_docs / 4)) in
  let nodes =
    let acc = ref [] in
    Collection.iter_elements c (fun e -> acc := e :: !acc);
    Array.of_list !acc
  in
  let n = Array.length nodes in
  let n_clients = 3 in
  let n_batches =
    max 40 (int_of_float (120.0 *. float_of_int s.dblp_docs /. 500.0))
  in
  let batch_len = 64 in
  (* the same request stream per (client, batch) regardless of shard
     count, so answer streams are comparable across configurations *)
  let lines_for ~client ~batch =
    let rng = Splitmix.create ((client * 7919) + batch + 1) in
    List.init batch_len (fun i ->
        let u = nodes.(Splitmix.int rng n) and v = nodes.(Splitmix.int rng n) in
        if i land 1 = 0 then Printf.sprintf "reach %d %d" u v
        else Printf.sprintf "dist %d %d" u v)
  in
  let run_config k =
    let dir = Filename.temp_file "hopi_sockbench" "" in
    Sys.remove dir;
    Sys.mkdir dir 0o700;
    Fun.protect
      ~finally:(fun () ->
        Array.iter
          (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Sys.rmdir dir with Sys_error _ -> ())
    @@ fun () ->
    let stats, t_split =
      Timer.time (fun () -> Router.split ~fsync:false ~k ~dir c)
    in
    let r = Router.open_dir ~cache_mb:32 dir in
    Fun.protect ~finally:(fun () -> Router.close r) @@ fun () ->
    Pool.with_pool ~jobs:s.jobs @@ fun pool ->
    let eng = Router.engine r in
    let handler =
      {
        Server.eval =
          (fun ~ctx queries -> (0, Serve.Batch.eval_batch_engine ~ctx ~pool eng queries));
        control = (fun _ -> Error "bench server has no control plane");
      }
    in
    let srv = Server.create ~max_inflight:256 ~queue_depth:64 handler in
    let sock = Filename.concat dir "bench.sock" in
    ignore (Server.add_listener srv (Server.Unix_socket sock) : Unix.sockaddr);
    Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
    let busy = Atomic.make 0 in
    let run_client client () =
      let cl = Client.connect_unix sock in
      Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
      let lats = ref [] and answers = ref [] in
      for b = 1 to n_batches do
        let lines = lines_for ~client ~batch:b in
        let rec go () =
          let t0 = Timer.start () in
          match Client.request cl lines with
          | Ok (Client.Answers (_, a)) ->
            lats := Timer.elapsed_s t0 :: !lats;
            answers := List.rev_append a !answers
          | Ok (Client.Busy _) ->
            Atomic.incr busy;
            Unix.sleepf 0.001;
            go ()
          | Ok (Client.Refused m) -> failwith ("socket bench: refused: " ^ m)
          | Error e -> failwith ("socket bench: " ^ e)
        in
        go ()
      done;
      (!lats, List.rev !answers)
    in
    let per_client, t_wall =
      Timer.time (fun () ->
          let doms =
            List.init n_clients (fun i -> Domain.spawn (run_client i))
          in
          List.map Domain.join doms)
    in
    let total_lines = n_clients * n_batches * batch_len in
    let qps = float_of_int total_lines /. Float.max t_wall 1e-9 in
    let lats = List.sort compare (List.concat_map fst per_client) in
    let p95 =
      List.nth lats (min (List.length lats - 1) (95 * List.length lats / 100))
    in
    (stats, t_split, qps, p95, List.map snd per_client, Atomic.get busy)
  in
  let st1, split1, qps1, p95_1, answers1, busy1 = run_config 1 in
  let stk, splitk, qpsk, p95_k, answersk, busyk = run_config 4 in
  if answers1 <> answersk then
    failwith "socket_throughput: sharded answers diverge from 1-shard answers";
  let g name v = Hopi_obs.Gauge.set (Hopi_obs.Registry.gauge name) v in
  g "bench_socket_qps_shards1" (int_of_float qps1);
  g "bench_socket_qps_shards4" (int_of_float qpsk);
  g "bench_socket_p95_us_shards1" (int_of_float (p95_1 *. 1e6));
  g "bench_socket_p95_us_shards4" (int_of_float (p95_k *. 1e6));
  print_table
    [ "shards"; "split"; "q/s"; "p95 batch"; "busy"; "cross links" ]
    [
      [
        string_of_int st1.Router.shards; seconds split1; Fmt.str "%.0f" qps1;
        Fmt.str "%.2fms" (p95_1 *. 1e3); string_of_int busy1;
        string_of_int st1.Router.cross_links;
      ];
      [
        string_of_int stk.Router.shards; seconds splitk; Fmt.str "%.0f" qpsk;
        Fmt.str "%.2fms" (p95_k *. 1e3); string_of_int busyk;
        string_of_int stk.Router.cross_links;
      ];
    ];
  note "%d elements; %d clients x %d batches x %d lines (reach/dist \
        alternating) per configuration"
    n n_clients n_batches batch_len;
  note "identical answer streams across shard counts: verified";
  note "scatter-gather at K=%d runs at %.0f%% of the 1-shard socket rate"
    stk.Router.shards
    (100.0 *. qpsk /. Float.max qps1 1e-9)

(* {1 Correctness gate} *)

let selfcheck (_ : scale) =
  section "self-check: covers are exact on reduced instances";
  let c = dblp_collection 40 in
  List.iter
    (fun (name, config) ->
      let r = Build.build config c in
      let ok = Verify.cover_vs_graph r.Build.cover (Collection.element_graph c) = [] in
      note "%-10s exact: %b" name ok;
      if not ok then failwith ("self-check failed for " ^ name))
    (table2_configs c);
  note "all configurations verified against BFS reachability."
