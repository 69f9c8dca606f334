(* Property-based differential tests: random graphs and random collections
   checked against the exhaustive BFS oracles in [Hopi_twohop.Verify], plus
   the jobs-independence guarantee of the parallel build and a maintenance
   soak over random update traces.

   Seeds come from qcheck's global state; CI pins QCHECK_SEED so failures
   replay.  Counts are modest — every case builds an index and runs an
   O(n²) oracle. *)

module Gen = QCheck2.Gen
module Digraph = Hopi_graph.Digraph
module Closure = Hopi_graph.Closure
module Builder = Hopi_twohop.Builder
module Dist_builder = Hopi_twohop.Dist_builder
module Verify = Hopi_twohop.Verify
module Cover = Hopi_twohop.Cover
module Pager = Hopi_storage.Pager
module Cover_store = Hopi_storage.Cover_store
module Int_set = Hopi_util.Int_set
module Collection = Hopi_collection.Collection
module Partitioning = Hopi_collection.Partitioning
module Traversal = Hopi_graph.Traversal
module Ihs = Hopi_util.Int_hashset
module Dblp = Hopi_workload.Dblp_gen
module Config = Hopi_core.Config
module Build = Hopi_core.Build
module Hopi = Hopi_core.Hopi

(* {1 Generators} *)

(* arbitrary digraph, cycles and all: n nodes, ~density·n² edges *)
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

(* cyclic digraph of 63-160 nodes and 1.2 edges per node, most pointing
   a few nodes ahead: many SCCs, so closure rows span several 62-bit
   words and many start past word 0 *)
let gen_wide_digraph =
  let open Gen in
  int_range 63 160 >>= fun n ->
  let edge =
    int_bound (n - 1) >>= fun u ->
    frequency [ (2, int_bound (n - 1)); (8, int_range 1 4 >|= fun k -> min (n - 1) (u + k)) ]
    >|= fun v -> (u, v)
  in
  list_repeat (6 * n / 5) edge >|= fun edges ->
  let g = Digraph.create () in
  for v = 0 to n - 1 do
    Digraph.add_node g v
  done;
  List.iter (fun (u, v) -> if u <> v then Digraph.add_edge g u v) edges;
  g

(* acyclic digraph: edges only from smaller to larger node ids *)
let gen_dag =
  let open Gen in
  int_range 2 24 >>= fun n ->
  let edge = pair (int_bound (n - 1)) (int_bound (n - 1)) in
  list_size (int_bound (3 * n)) edge >|= fun edges ->
  let g = Digraph.create () in
  for v = 0 to n - 1 do
    Digraph.add_node g v
  done;
  List.iter
    (fun (u, v) -> if u <> v then Digraph.add_edge g (min u v) (max u v))
    edges;
  g

(* random linked collection: a small DBLP-like corpus with randomised size,
   seed and linkage density (heavier citation tails exercise the join) *)
let gen_collection_cfg =
  let open Gen in
  int_range 4 18 >>= fun n_docs ->
  int_range 0 1_000_000 >>= fun seed ->
  float_range 1.0 6.0 >>= fun avg_citations ->
  float_range 0.0 0.3 >|= fun forward_fraction ->
  { (Dblp.default ~n_docs) with seed; avg_citations; forward_fraction }

let gen_build_config =
  let open Gen in
  oneofl
    [
      Config.Whole;
      Config.Singleton;
      Config.Random_nodes 60;
      Config.Closure_aware 2_000;
    ]
  >>= fun partitioner ->
  oneofl [ Config.Incremental; Config.Psg; Config.Psg_partitioned 500 ]
  >>= fun joiner ->
  oneofl [ true; false ] >>= fun preselect_link_targets ->
  int_range 1 4 >|= fun jobs ->
  { Config.default with partitioner; joiner; preselect_link_targets; jobs }

(* {1 Canonical cover representation} *)

(* node -> (sorted Lin, sorted Lout), sorted by node: two covers are the
   same cover iff their canonical forms are equal, independent of hash
   table layout or insertion order *)
let canonical cover =
  List.sort compare (Cover.nodes cover)
  |> List.map (fun v ->
         (v, Int_set.to_list (Cover.lin cover v), Int_set.to_list (Cover.lout cover v)))

(* {1 Properties} *)

let no_mismatch label = function
  | [] -> true
  | { Verify.u; v; expected; got } :: _ ->
    QCheck2.Test.fail_reportf "%s: pair (%d,%d) expected %b got %b" label u v
      expected got

let prop_cover_exact_on_digraph =
  QCheck2.Test.make ~name:"2-hop cover = BFS on random digraphs" ~count:60
    gen_digraph (fun g ->
      let cover, _ = Builder.build (Closure.compute g) in
      no_mismatch "cover_vs_graph" (Verify.cover_vs_graph cover g))

let prop_cover_exact_on_dag =
  QCheck2.Test.make ~name:"2-hop cover = BFS on random DAGs" ~count:60 gen_dag
    (fun g ->
      let cover, _ = Builder.build (Closure.compute g) in
      no_mismatch "cover_vs_graph" (Verify.cover_vs_graph cover g))

let prop_dist_cover_exact =
  QCheck2.Test.make ~name:"distance cover = BFS distances" ~count:40
    (Gen.oneof [ gen_digraph; gen_wide_digraph ])
    (fun g ->
      let cover, _ = Dist_builder.build g in
      match Verify.dist_cover_vs_graph cover g with
      | [] -> true
      | { Verify.du; dv; expected_d; got_d } :: _ ->
        let pp = function None -> "none" | Some d -> string_of_int d in
        QCheck2.Test.fail_reportf "distance (%d,%d): expected %s got %s" du dv
          (pp expected_d) (pp got_d))

(* one label family: a plain cover is a distance cover whose distances
   are all 0, in memory and in the store *)
let prop_cover_dist_matches_store =
  QCheck2.Test.make ~name:"Cover.dist = stored MIN(DIST), plain and distance covers"
    ~count:40 gen_digraph
    (fun g ->
      let plain, _ = Builder.build (Closure.compute g) in
      let nodes = Digraph.nodes g in
      List.iter
        (fun u ->
          List.iter
            (fun v ->
              let want = if Cover.connected plain u v then Some 0 else None in
              if Cover.dist plain u v <> want then
                QCheck2.Test.fail_reportf "plain dist (%d,%d) is not Some 0 iff connected" u v)
            nodes)
        nodes;
      let probes = (-1) :: 1_000_000 :: nodes in
      List.iter
        (fun (kind, cover) ->
          let store =
            Cover_store.of_cover (Pager.create ~pool_pages:16 Pager.Memory) cover
          in
          List.iter
            (fun u ->
              List.iter
                (fun v ->
                  if Cover_store.min_distance store u v <> Cover.dist cover u v then
                    QCheck2.Test.fail_reportf "%s cover: stored MIN(DIST) (%d,%d) differs" kind
                      u v)
                probes)
            probes)
        [ ("plain", plain); ("distance", fst (Dist_builder.build g)) ];
      true)

let prop_build_exact_on_collections =
  QCheck2.Test.make
    ~name:"Build.build = BFS on random collections x random configs" ~count:12
    Gen.(pair gen_collection_cfg gen_build_config)
    (fun (gen_cfg, config) ->
      let c = Dblp.generate gen_cfg in
      let r = Build.build config c in
      no_mismatch "build"
        (Verify.cover_vs_graph r.Build.cover (Collection.element_graph c)))

(* the collection partitioned into several pieces, so the PSG join has
   links to cross *)
let gen_split_partitioner =
  Gen.oneofl
    [ Config.Singleton; Config.Random_nodes 40; Config.Random_nodes 120; Config.Closure_aware 2_000 ]

(* H̄ from one closure of the PSG and the paper's recursion over PSG
   partitions, loose budget or tight, must add the same entries *)
let prop_hbar_strategies_agree =
  QCheck2.Test.make
    ~name:"PSG join: one-closure H̄ = partitioned H̄ (unbounded and tight budgets)"
    ~count:12
    Gen.(pair gen_collection_cfg gen_split_partitioner)
    (fun (gen_cfg, partitioner) ->
      let c = Dblp.generate gen_cfg in
      let build joiner =
        canonical (Build.build { Config.default with partitioner; joiner } c).Build.cover
      in
      let one = build Config.Psg in
      List.for_all
        (fun budget ->
          one = build (Config.Psg_partitioned budget)
          || QCheck2.Test.fail_reportf "budget %d: covers differ" budget)
        [ max_int; 20 ])

(* The PSG of a partitioning from BFS alone: the cross-partition links,
   and a within edge from each link target to every other link source that
   BFS finds from it in its partition's subgraph.  Answers the PSG, the
   link sources and targets (each ascending) and the subgraph of each
   partition. *)
let bfs_psg c (p : Partitioning.t) =
  let part = Partitioning.part_of_element p c in
  let subgraphs = Hashtbl.create 16 in
  let subgraph q =
    match Hashtbl.find_opt subgraphs q with
    | Some g -> g
    | None ->
      let g = Partitioning.element_subgraph p c q in
      Hashtbl.add subgraphs q g;
      g
  in
  let links = p.Partitioning.cross_links in
  let sources = List.sort_uniq compare (List.map fst links)
  and targets = List.sort_uniq compare (List.map snd links) in
  let psg = Digraph.create () in
  List.iter (fun (s, t) -> Digraph.add_edge psg s t) links;
  List.iter
    (fun t ->
      let within = Traversal.reachable (subgraph (part t)) [ t ] in
      List.iter
        (fun s -> if s <> t && Ihs.mem within s then Digraph.add_edge psg t s)
        sources)
    targets;
  (psg, sources, targets, fun v -> subgraph (part v))

(* The Ĥ entries of a partitioning, from BFS alone, as sorted (node,
   center) lists.  Ĥout: H̄out(s) = the link targets other than s that s
   reaches in the BFS PSG, copied to every within-partition ancestor [a]
   of [s] as [(a, t)], [a <> t].  Ĥin: every within-partition descendant
   [d <> t] of a link target [t] gets [(d, t)]. *)
let hat_entries c (p : Partitioning.t) =
  let psg, sources, targets, subgraph_of = bfs_psg c p in
  let out = Hashtbl.create 64 and inn = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let reached = Traversal.reachable psg [ s ] in
      let hbar = List.filter (fun t -> t <> s && Ihs.mem reached t) targets in
      Ihs.iter
        (fun a -> List.iter (fun t -> if a <> t then Hashtbl.replace out (a, t) ()) hbar)
        (Traversal.reachable_backward (subgraph_of s) [ s ]))
    sources;
  List.iter
    (fun t ->
      Ihs.iter
        (fun d -> if d <> t then Hashtbl.replace inn (d, t) ())
        (Traversal.reachable (subgraph_of t) [ t ]))
    targets;
  let sorted h = List.sort compare (Hashtbl.fold (fun e () l -> e :: l) h []) in
  (sorted out, sorted inn)

let out_emitted = Hopi_obs.Registry.counter "hopi_join_psg_out_emitted_total"

(* [Join_psg.join] over Builder covers of [p]'s partitions must add exactly
   the BFS Ĥ: per direction, the joined cover's entries are the partition
   covers' and the BFS entries, and the flatten emits each BFS Ĥout entry
   once (also those a partition cover already holds).  [None] when it
   does, else what differs. *)
let join_vs_hat c (p : Partitioning.t) ~strategy ~jobs =
  let covers =
    Array.init p.Partitioning.n (fun q ->
        fst (Builder.build (Closure.compute (Partitioning.element_subgraph p c q))))
  in
  let before = Hopi_obs.Counter.get out_emitted in
  let final, _ =
    Hopi_util.Pool.with_pool ~jobs (fun pool ->
        Hopi_core.Join_psg.join ~strategy ~pool c p ~partition_covers:covers)
  in
  let emitted = Hopi_obs.Counter.get out_emitted - before in
  let want_out, want_in = hat_entries c p in
  let entries side cov =
    List.concat_map
      (fun v -> List.map (fun w -> (v, w)) (Int_set.to_list (side cov v)))
      (Cover.nodes cov)
  in
  let check what side want =
    let part = List.concat_map (entries side) (Array.to_list covers) in
    let want = List.sort_uniq compare (part @ want) and got = List.sort compare (entries side final) in
    if got = want then None
    else
      let missing = List.filter (fun e -> not (List.mem e got)) want
      and extra = List.filter (fun e -> not (List.mem e want)) got in
      let show l = String.concat " " (List.map (fun (v, w) -> Printf.sprintf "(%d,%d)" v w) l) in
      Some (Printf.sprintf "%s: missing %s; extra %s" what (show missing) (show extra))
  in
  match (check "Lout" Cover.lout want_out, check "Lin" Cover.lin want_in) with
  | Some m, _ | None, Some m -> Some m
  | None, None when emitted <> List.length want_out ->
    Some (Printf.sprintf "emitted %d Ĥout entries, BFS has %d" emitted (List.length want_out))
  | None, None -> None

let strategy_name = function
  | Hopi_core.Join_psg.One_closure -> "one-closure"
  | Hopi_core.Join_psg.Partitioned b -> Printf.sprintf "partitioned %d" b

let prop_join_adds_hat =
  QCheck2.Test.make
    ~name:"PSG join adds exactly the BFS Ĥout and Ĥin (both H̄ strategies, jobs 1-3)"
    ~count:12
    Gen.(
      quad gen_collection_cfg gen_split_partitioner
        (oneofl Hopi_core.Join_psg.[ One_closure; Partitioned max_int; Partitioned 20 ])
        (int_range 1 3))
    (fun (gen_cfg, partitioner, strategy, jobs) ->
      let c = Dblp.generate gen_cfg in
      let p = (Build.build { Config.default with partitioner } c).Build.partitioning in
      match join_vs_hat c p ~strategy ~jobs with
      | None -> true
      | Some m -> QCheck2.Test.fail_reportf "%s, jobs %d: %s" (strategy_name strategy) jobs m)

(* [e] is a link source and a link target; on the cycle the PSG leads from
   [e] back to [e], and H̄out(e) leaves [e] out, so [e]'s in-document
   ancestors get no [(a, e)] Ĥout entry.  One partition per document. *)
let test_join_self_row () =
  List.iter
    (fun cycle ->
      let c = Test_shard.source_and_target ~cycle in
      let p = Partitioning.singleton_per_doc c in
      let e = List.hd (Collection.elements_with_tag c "e") in
      let links = p.Partitioning.cross_links in
      Alcotest.(check bool) "e is a link source" true (List.exists (fun (u, _) -> u = e) links);
      Alcotest.(check bool) "e is a link target" true (List.exists (fun (_, v) -> v = e) links);
      List.iter
        (fun strategy ->
          List.iter
            (fun jobs ->
              match join_vs_hat c p ~strategy ~jobs with
              | None -> ()
              | Some m ->
                Alcotest.failf "cycle=%b, %s, jobs %d: %s" cycle (strategy_name strategy) jobs m)
            [ 1; 2; 3 ])
        Hopi_core.Join_psg.[ One_closure; Partitioned max_int; Partitioned 1 ])
    [ true; false ]

let edge_list g =
  let l = ref [] in
  Digraph.iter_edges g (fun u v -> l := (u, v) :: !l);
  List.sort compare !l

(* [Psg.build] reads the within edges off the partition covers' labels,
   plain or distance-aware; they must be exactly the BFS PSG's *)
let prop_psg_labels_equal_bfs =
  QCheck2.Test.make ~name:"PSG from partition-cover labels = PSG from BFS" ~count:12
    Gen.(triple gen_collection_cfg gen_split_partitioner bool)
    (fun (gen_cfg, partitioner, dist) ->
      let c = Dblp.generate gen_cfg in
      let p = (Build.build { Config.default with partitioner } c).Build.partitioning in
      let covers =
        Array.init p.Partitioning.n (fun q ->
            let sub = Partitioning.element_subgraph p c q in
            if dist then fst (Dist_builder.build sub) else fst (Builder.build (Closure.compute sub)))
      in
      let label iter v f = iter covers.(Partitioning.part_of_element p c v) v f in
      let psg =
        Hopi_collection.Psg.build ~links:p.Partitioning.cross_links
          ~lin:(label Cover.iter_lin) ~lout:(label Cover.iter_lout)
      in
      let want, _, _, _ = bfs_psg c p in
      edge_list psg.Hopi_collection.Psg.graph = edge_list want
      || QCheck2.Test.fail_reportf "PSG edges differ: %d from labels, %d from BFS"
           (Digraph.n_edges psg.Hopi_collection.Psg.graph) (Digraph.n_edges want))

let prop_out_emitted_once =
  QCheck2.Test.make
    ~name:"PSG join pushes each distinct Ĥout entry once"
    ~count:12
    Gen.(triple gen_collection_cfg gen_split_partitioner (int_range 1 3))
    (fun (gen_cfg, partitioner, jobs) ->
      let c = Dblp.generate gen_cfg in
      let before = Hopi_obs.Counter.get out_emitted in
      let r = Build.build { Config.default with partitioner; jobs } c in
      let pushed = Hopi_obs.Counter.get out_emitted - before
      and distinct = List.length (fst (hat_entries c r.Build.partitioning)) in
      pushed = distinct
      || QCheck2.Test.fail_reportf "pushed %d Ĥout entries, %d distinct" pushed distinct)

let prop_jobs_determinism =
  (* every job count hands the cover phase's partitions and the join's
     tasks to the domains in its own order; the cover must not notice *)
  QCheck2.Test.make
    ~name:"jobs=1 and jobs=4 produce the identical cover, and so do jobs=2 and 3"
    ~count:10
    Gen.(pair gen_collection_cfg gen_build_config)
    (fun (gen_cfg, config) ->
      let c = Dblp.generate gen_cfg in
      let r1 = Build.build { config with Config.jobs = 1 } c in
      List.for_all
        (fun jobs ->
          let r = Build.build { config with Config.jobs } c in
          if Cover.size r1.Build.cover <> Cover.size r.Build.cover then
            QCheck2.Test.fail_reportf "jobs=%d: cover sizes differ: %d vs %d" jobs
              (Cover.size r1.Build.cover) (Cover.size r.Build.cover);
          if r1.Build.closure_connections <> r.Build.closure_connections then
            QCheck2.Test.fail_reportf "jobs=%d: closure connections differ: %d vs %d" jobs
              r1.Build.closure_connections r.Build.closure_connections;
          canonical r1.Build.cover = canonical r.Build.cover)
        [ 2; 3; 4 ])

let prop_fixed_seed_reproducible =
  QCheck2.Test.make ~name:"same config + seed => reproducible parallel build"
    ~count:8 gen_collection_cfg (fun gen_cfg ->
      let config = { Config.default with Config.jobs = 4 } in
      let build () = Build.build config (Dblp.generate gen_cfg) in
      canonical (build ()).Build.cover = canonical (build ()).Build.cover)

(* {1 Maintenance soak} *)

(* replay a random churn trace through the facade; the index must stay
   query-equivalent to a from-scratch rebuild after every operation (which
   [self_check]'s BFS oracle is).  Returns how often the separating fast
   path (Theorem 2) vs the general path (Theorem 3) ran. *)
let replay_soak ~gen_cfg ~trace_seed ~n_ops =
  let c = Dblp.generate gen_cfg in
  let idx = Hopi.create c in
  let ops =
    Hopi_workload.Update_gen.churn_trace ~seed:trace_seed ~n_ops
      (Dblp.document_xml gen_cfg) (Hopi.collection idx)
  in
  let separating = ref 0 and general = ref 0 in
  List.iter
    (fun op ->
      let c = Hopi.collection idx in
      (match op with
       | Hopi_workload.Update_gen.Delete_doc name -> (
         match Collection.find_doc c name with
         | Some did ->
           let stats = Hopi.remove_document idx did in
           if stats.Hopi_core.Maintenance.separating then incr separating
           else incr general
         | None -> ())
       | Hopi_workload.Update_gen.Reinsert_doc (name, xml) ->
         if Collection.find_doc c name = None then
           (match Hopi.insert_document_xml idx ~name xml with
            | Ok _ -> ()
            | Error _ -> failwith "soak: regenerated XML failed to parse")
       | Hopi_workload.Update_gen.Add_link (src, dst) -> (
         match (Collection.find_doc c src, Collection.find_doc c dst) with
         | Some ds, Some dd ->
           let u = Collection.doc_root_element c ds
           and v = Collection.doc_root_element c dd in
           if u <> v
              && not (Digraph.mem_edge (Collection.element_graph c) u v)
           then ignore (Hopi.insert_link idx u v)
         | _ -> ()));
      if not (Hopi.self_check idx) then
        failwith "soak: index diverged from BFS oracle after an update")
    ops;
  (* final differential check against an actual from-scratch rebuild *)
  let rebuilt = Hopi.create (Hopi.collection idx) in
  if canonical (Hopi.cover idx) <> canonical (Hopi.cover rebuilt) then begin
    (* maintained covers may legitimately differ in entries from rebuilt
       ones — but they must answer identically; compare all pairs *)
    let g = Collection.element_graph (Hopi.collection idx) in
    Digraph.iter_nodes g (fun u ->
        Digraph.iter_nodes g (fun v ->
            if Hopi.connected idx u v <> Hopi.connected rebuilt u v then
              failwith
                (Printf.sprintf
                   "soak: maintained and rebuilt indexes disagree on (%d,%d)" u
                   v)))
  end;
  (!separating, !general)

let prop_maintenance_soak =
  QCheck2.Test.make ~name:"maintenance soak: churn keeps the index exact"
    ~count:8
    Gen.(pair gen_collection_cfg (int_range 0 1_000_000))
    (fun (gen_cfg, trace_seed) ->
      ignore (replay_soak ~gen_cfg ~trace_seed ~n_ops:8);
      true)

(* deterministic companion: a trace long enough that both deletion paths
   must occur (DBLP docs with cross citations take the general path, leaf
   documents the separating fast path) *)
let test_soak_covers_both_paths () =
  let seen_sep = ref 0 and seen_gen = ref 0 in
  let trace_seed = ref 11 in
  let gen_seeds = [ 3; 41; 97 ] in
  List.iter
    (fun seed ->
      let gen_cfg = { (Dblp.default ~n_docs:14) with seed } in
      let s, g = replay_soak ~gen_cfg ~trace_seed:!trace_seed ~n_ops:12 in
      incr trace_seed;
      seen_sep := !seen_sep + s;
      seen_gen := !seen_gen + g)
    gen_seeds;
  Alcotest.(check bool) "separating fast path exercised" true (!seen_sep > 0);
  Alcotest.(check bool) "general path exercised" true (!seen_gen > 0)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "props.cover",
      qsuite
        [
          prop_cover_exact_on_digraph;
          prop_cover_exact_on_dag;
          prop_dist_cover_exact;
          prop_cover_dist_matches_store;
        ] );
    ( "props.build",
      qsuite
        [
          prop_build_exact_on_collections;
          prop_hbar_strategies_agree;
          prop_out_emitted_once;
          prop_psg_labels_equal_bfs;
          prop_jobs_determinism;
          prop_fixed_seed_reproducible;
          prop_join_adds_hat;
        ]
      @ [ Alcotest.test_case "PSG join: no self row on a PSG cycle" `Quick test_join_self_row ] );
    ( "props.maintenance",
      Alcotest.test_case "soak covers both delete paths" `Quick
        test_soak_covers_both_paths
      :: qsuite [ prop_maintenance_soak ] );
  ]
