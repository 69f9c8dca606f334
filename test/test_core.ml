(* End-to-end tests for hopi_core: all build configurations, both join
   algorithms, and every maintenance operation must keep the cover exactly
   equal to BFS reachability over the element graph. *)

open Hopi_core
module Collection = Hopi_collection.Collection
module Cover = Hopi_twohop.Cover
module Verify = Hopi_twohop.Verify
module Weights = Hopi_partition.Weights
module Dblp = Hopi_workload.Dblp_gen
module Inex = Hopi_workload.Inex_gen
module Ihs = Hopi_util.Int_hashset
module Splitmix = Hopi_util.Splitmix

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_dblp ?(n = 30) ?(seed = 20050405) () =
  Dblp.generate { (Dblp.default ~n_docs:n) with seed }

let exact c cover =
  Verify.cover_vs_graph cover (Collection.element_graph c) = []

let config_cases =
  [
    ("whole", { Config.default with partitioner = Config.Whole });
    ("singleton+psg", { Config.default with partitioner = Config.Singleton });
    ( "singleton+incremental",
      { Config.default with partitioner = Config.Singleton; joiner = Config.Incremental }
    );
    ( "random+incremental (edbt04)",
      {
        Config.baseline_edbt04 with
        partitioner = Config.Random_nodes 120;
      } );
    ( "random+psg",
      { Config.default with partitioner = Config.Random_nodes 120 } );
    ( "closure+psg",
      { Config.default with partitioner = Config.Closure_aware 3000 } );
    ( "closure+incremental",
      {
        Config.default with
        partitioner = Config.Closure_aware 3000;
        joiner = Config.Incremental;
      } );
    ( "closure+psg+links-weights",
      {
        Config.default with
        partitioner = Config.Closure_aware 3000;
        weight_scheme = Weights.Links;
      } );
    ( "closure+psg+A+D",
      {
        Config.default with
        partitioner = Config.Closure_aware 3000;
        weight_scheme = Weights.A_plus_D;
      } );
    ( "no preselection",
      { Config.default with preselect_link_targets = false } );
    ( "parallel (2 jobs)",
      { Config.default with partitioner = Config.Closure_aware 3000; jobs = 2 } );
    ( "parallel (4 jobs)",
      { Config.default with partitioner = Config.Random_nodes 100; jobs = 4 } );
  ]

let test_build_config (name, config) () =
  let c = small_dblp () in
  let r = Build.build config c in
  check_bool (name ^ " exact") true (exact c r.Build.cover);
  check_bool (name ^ " partitions cover all docs") true
    (Array.fold_left (fun acc l -> acc + List.length l) 0
       r.Build.partitioning.Hopi_collection.Partitioning.docs_of_part
    = Collection.n_docs c)

let test_inex_build () =
  let c = Inex.generate { (Inex.default ~n_docs:6) with avg_elements = 40 } in
  check_int "no links at all" 0 (Collection.n_links c);
  let r = Build.build Config.default c in
  check_bool "exact" true (exact c r.Build.cover);
  (* tree-only: the joiner must add nothing *)
  check_int "no join entries" 0 r.Build.join_entries

let test_psg_vs_incremental_same_relation () =
  let c = small_dblp ~n:40 () in
  let cfg p = { Config.default with partitioner = Config.Random_nodes 150; joiner = p } in
  let a = Build.build (cfg Config.Psg) c in
  let b = Build.build (cfg Config.Incremental) c in
  check_bool "psg exact" true (exact c a.Build.cover);
  check_bool "incremental exact" true (exact c b.Build.cover)

let test_psg_partitioned_strategies () =
  let c = small_dblp ~n:40 () in
  (* budgets from "everything in one PSG chunk" down to "every component is
     its own chunk": all must produce an exact cover and the same H̄ *)
  List.iter
    (fun budget ->
      let config =
        {
          Config.default with
          partitioner = Config.Random_nodes 120;
          joiner = Config.Psg_partitioned budget;
        }
      in
      let r = Build.build config c in
      check_bool (Printf.sprintf "budget %d exact" budget) true (exact c r.Build.cover))
    [ 1; 100; 5_000; max_int ];
  (* identical size to the one-closure strategy under an unbounded budget *)
  let one =
    Build.build { Config.default with partitioner = Config.Random_nodes 120 } c
  in
  let part =
    Build.build
      {
        Config.default with
        partitioner = Config.Random_nodes 120;
        joiner = Config.Psg_partitioned max_int;
      }
      c
  in
  check_int "same cover size as one-closure H̄" (Cover.size one.Build.cover)
    (Cover.size part.Build.cover)

(* [t] is a link source and a link target, with a within edge to the
   link source [s] below it; its document and [s]'s link sit in different
   PSG chunks under a budget of 1, so the partitioned strategy must count
   [t] among its own chunk-source ancestors for H̄out(t) to take what [s]
   reaches.  Both strategies give every source the same H̄, as counted by
   the [hopi_join_psg_hbar_targets] histogram (Ĥ would hide a short
   H̄out(t) in the cover: [t] is an ancestor of [s]). *)
let test_psg_source_that_is_target () =
  let c = Collection.create () in
  List.iter
    (fun (name, xml) ->
      ignore (Collection.add_document c ~name (Hopi_xml.Xml_parser.parse_string_exn xml) : int))
    [
      ("a.xml", {|<a><t id="t" xlink:href="b.xml"><s xlink:href="c.xml"/></t></a>|});
      ("b.xml", {|<b/>|});
      ("c.xml", {|<c/>|});
      ("d.xml", {|<d><x xlink:href="a.xml#t"/></d>|});
    ];
  let h = Hopi_obs.Registry.histogram "hopi_join_psg_hbar_targets" in
  let hbar joiner =
    let count = Hopi_obs.Histogram.count h and sum = Hopi_obs.Histogram.sum h in
    let r = Build.build { Config.default with partitioner = Config.Singleton; joiner } c in
    check_bool "exact" true (exact c r.Build.cover);
    (Hopi_obs.Histogram.count h - count, Hopi_obs.Histogram.sum h - sum)
  in
  let sources_and_targets = Alcotest.(pair int int) in
  (* H̄(x) = {t, b, c}, H̄(t) = {b, c}, H̄(s) = {c} *)
  Alcotest.check sources_and_targets "one closure" (3, 6) (hbar Config.Psg);
  List.iter
    (fun budget ->
      Alcotest.check sources_and_targets (Printf.sprintf "partitioned, budget %d" budget) (3, 6)
        (hbar (Config.Psg_partitioned budget)))
    [ 1; max_int ]

(* {1 Hopi facade} *)

let test_hopi_queries () =
  let c = small_dblp () in
  let idx = Hopi.create c in
  check_bool "self check" true (Hopi.self_check idx);
  (* descendants of a root must include all its document's elements *)
  let did = List.hd (List.sort compare (Collection.doc_ids c)) in
  let root = Collection.doc_root_element c did in
  let desc = Hopi.descendants idx root in
  List.iter
    (fun e -> check_bool "doc element reachable from root" true (Ihs.mem desc e))
    (Collection.elements_of_doc c did);
  (* tag-filtered queries agree with tag_of *)
  List.iter
    (fun e -> check_bool "is author" true (Collection.tag_of c e = "author"))
    (Hopi.descendants_with_tag idx root "author")

let test_hopi_store_matches () =
  let c = small_dblp ~n:15 () in
  let idx = Hopi.create c in
  let store = Hopi.to_store idx (Hopi_storage.Pager.create Hopi_storage.Pager.Memory) in
  check_int "entries" (Hopi.size idx) (Hopi_storage.Cover_store.n_entries store);
  let els = ref [] in
  Collection.iter_elements c (fun e -> els := e :: !els);
  let els = Array.of_list !els in
  let rng = Splitmix.create 5 in
  for _ = 1 to 500 do
    let u = Splitmix.pick rng els and v = Splitmix.pick rng els in
    check_bool "store agrees" (Hopi.connected idx u v)
      (Hopi_storage.Cover_store.connected store u v)
  done

let test_hopi_distance_index () =
  let c = small_dblp ~n:10 () in
  let idx = Hopi.create c in
  let d = Hopi.distance_index idx in
  check_int "distance cover exact" 0
    (List.length (Verify.dist_cover_vs_graph d (Collection.element_graph c)))

(* {1 Maintenance} *)

let test_insert_document_incremental () =
  let cfg = Dblp.default ~n_docs:25 in
  let c = Collection.create () in
  (* start with the first 20 documents *)
  for i = 0 to 19 do
    match Collection.add_document_xml c ~name:(Dblp.doc_name i) (Dblp.document_xml cfg i) with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "gen"
  done;
  let idx = Hopi.create c in
  (* insert the remaining 5 one by one; index must stay exact throughout *)
  for i = 20 to 24 do
    (match Hopi.insert_document_xml idx ~name:(Dblp.doc_name i) (Dblp.document_xml cfg i) with
     | Ok _ -> ()
     | Error _ -> Alcotest.fail "gen");
    check_bool (Printf.sprintf "exact after insert %d" i) true (Hopi.self_check idx)
  done

let test_insert_element_and_link () =
  let c = small_dblp ~n:8 () in
  let idx = Hopi.create c in
  let docs = List.sort compare (Collection.doc_ids c) in
  let d0 = List.nth docs 0 and d1 = List.nth docs 1 in
  let e = Hopi.insert_element idx ~doc:d0 ~parent:(Collection.doc_root_element c d0) ~tag:"note" in
  check_bool "exact after element insert" true (Hopi.self_check idx);
  (* link the new element to another document's root *)
  let r1 = Collection.doc_root_element c d1 in
  (match Hopi.insert_link idx e r1 with
   | Collection.Inter -> ()
   | _ -> Alcotest.fail "expected inter link");
  check_bool "exact after link insert" true (Hopi.self_check idx);
  check_bool "new connection" true (Hopi.connected idx e r1);
  (* and remove it again *)
  Hopi.remove_link idx e r1;
  check_bool "exact after link removal" true (Hopi.self_check idx)

let test_delete_documents_all_paths () =
  let c = small_dblp ~n:20 () in
  let idx = Hopi.create c in
  let rng = Splitmix.create 11 in
  let seen_fast = ref false and seen_general = ref false in
  for _ = 1 to 10 do
    let docs = Array.of_list (List.sort compare (Collection.doc_ids (Hopi.collection idx))) in
    let victim = Splitmix.pick rng docs in
    let stats = Hopi.remove_document idx victim in
    if stats.Maintenance.separating then seen_fast := true else seen_general := true;
    check_bool "exact after delete" true (Hopi.self_check idx)
  done;
  check_bool "exercised the fast path" true !seen_fast

let test_delete_nonseparating_document () =
  (* chain a -> b -> c plus bypass a -> c: b never separates *)
  let parse = Hopi_xml.Xml_parser.parse_string_exn in
  let c = Collection.create () in
  let _ =
    Collection.add_document c ~name:"a.xml"
      (parse
         {|<a id="r"><x xlink:href="b.xml#r"/><y xlink:href="c.xml#r"/></a>|})
  in
  let b =
    Collection.add_document c ~name:"b.xml"
      (parse {|<b id="r"><x xlink:href="c.xml#r"/></b>|})
  in
  let _ = Collection.add_document c ~name:"c.xml" (parse {|<c id="r"><p/></c>|}) in
  let idx = Hopi.create c in
  check_bool "b does not separate" false (Maintenance.separates c b);
  let stats = Hopi.remove_document idx b in
  check_bool "general path taken" false stats.Maintenance.separating;
  check_bool "still exact" true (Hopi.self_check idx);
  (* a must still reach c through the bypass *)
  let a_root = Collection.doc_root_element c (Option.get (Collection.find_doc c "a.xml")) in
  let c_root = Collection.doc_root_element c (Option.get (Collection.find_doc c "c.xml")) in
  check_bool "bypass survives" true (Hopi.connected idx a_root c_root)

let test_delete_separating_document () =
  (* pure chain a -> b -> c: b separates; after deletion a cannot reach c *)
  let parse = Hopi_xml.Xml_parser.parse_string_exn in
  let c = Collection.create () in
  let _ =
    Collection.add_document c ~name:"a.xml"
      (parse {|<a id="r"><x xlink:href="b.xml#r"/></a>|})
  in
  let b =
    Collection.add_document c ~name:"b.xml"
      (parse {|<b id="r"><x xlink:href="c.xml#r"/></b>|})
  in
  let _ = Collection.add_document c ~name:"c.xml" (parse {|<c id="r"><p/></c>|}) in
  let idx = Hopi.create c in
  check_bool "b separates" true (Maintenance.separates c b);
  let stats = Hopi.remove_document idx b in
  check_bool "fast path taken" true stats.Maintenance.separating;
  check_bool "still exact" true (Hopi.self_check idx);
  let a_root = Collection.doc_root_element c (Option.get (Collection.find_doc c "a.xml")) in
  let c_root = Collection.doc_root_element c (Option.get (Collection.find_doc c "c.xml")) in
  check_bool "disconnected" false (Hopi.connected idx a_root c_root)

let test_modify_document () =
  let c = small_dblp ~n:10 () in
  let idx = Hopi.create c in
  let docs = List.sort compare (Collection.doc_ids c) in
  let victim = List.nth docs 3 in
  let parse = Hopi_xml.Xml_parser.parse_string_exn in
  let name = Collection.doc_name c victim in
  let new_doc = parse {|<article id="r"><title id="t">replaced</title></article>|} in
  ignore (Hopi.modify_document_diff idx victim new_doc);
  check_bool "exact after modify" true (Hopi.self_check idx);
  let did = Option.get (Collection.find_doc c name) in
  check_int "replaced doc has 2 elements" 2
    (Collection.n_elements_of_doc (Hopi.collection idx) did)

let test_delete_then_reinsert_roundtrip () =
  let cfg = Dblp.default ~n_docs:12 in
  let c = Dblp.generate cfg in
  let idx = Hopi.create c in
  let docs = List.sort compare (Collection.doc_ids c) in
  let victim = List.nth docs 5 in
  let name = Collection.doc_name c victim in
  ignore (Hopi.remove_document idx victim);
  check_bool "exact after delete" true (Hopi.self_check idx);
  (match Hopi.insert_document_xml idx ~name (Dblp.document_xml cfg 5) with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "reinsert failed");
  check_bool "exact after reinsert" true (Hopi.self_check idx);
  (* pending links into the document were restored *)
  check_int "no pending" 0 (Collection.pending_links (Hopi.collection idx))

let test_subtree_insert_delete () =
  let cfg = { (Dblp.default ~n_docs:10) with seed = 20050405 } in
  let c = Dblp.generate cfg in
  let idx = Hopi.create c in
  let doc i = Option.get (Collection.find_doc c (Dblp.doc_name i)) in
  let d0 = doc 0 and d5 = doc 5 in
  let r0 = Collection.doc_root_element c d0 in
  (* graft a fragment that links to another document: the new version of
     d0 is the old one plus the fragment, which the diff inserts as one
     subtree *)
  let parse = Hopi_xml.Xml_parser.parse_string_exn in
  let fragment =
    parse
      (Printf.sprintf
         {|<appendix><note id="n1"/><cite xlink:href="%s#r"/></appendix>|}
         (Collection.doc_name c d5))
  in
  let old = parse (Dblp.document_xml cfg 0) in
  let grafted =
    Hopi_xml.Xml_tree.{ old with children = old.children @ [ Element fragment ] }
  in
  let stats = Hopi.modify_document_diff idx d0 grafted in
  check_bool "no fallback" false stats.Maintenance.fell_back;
  check_int "one subtree inserted" 1 stats.Maintenance.subtrees_inserted;
  let appendix =
    match Collection.elements_with_tag c "appendix" with
    | [ e ] -> e
    | es -> Alcotest.failf "%d appendix elements" (List.length es)
  in
  let created = appendix :: Collection.children c appendix in
  check_int "three elements" 3 (List.length created);
  check_bool "exact after graft" true (Hopi.self_check idx);
  let r5 = Collection.doc_root_element c d5 in
  check_bool "new cross link indexed" true (Hopi.connected idx r0 r5);
  (* delete the fragment again: the cross connection must disappear unless
     another citation provides it *)
  ignore (Hopi.remove_subtree idx appendix);
  check_bool "exact after prune" true (Hopi.self_check idx);
  let still_alive e =
    match Collection.element_info c e with
    | (_ : Collection.element_info) -> true
    | exception Invalid_argument _ -> false
  in
  check_int "grafted elements gone" 0 (List.length (List.filter still_alive created))

let test_subtree_delete_fast_path () =
  (* a subtree without outgoing links takes the pruning fast path *)
  let parse = Hopi_xml.Xml_parser.parse_string_exn in
  let c = Collection.create () in
  let d = Collection.add_document c ~name:"a.xml" (parse "<a><b><c/><d/></b><e/></a>") in
  let idx = Hopi.create c in
  let b = List.hd (Collection.elements_with_tag c "b") in
  let recomputed = Hopi.remove_subtree idx b in
  check_int "fast path" 0 recomputed;
  check_bool "exact" true (Hopi.self_check idx);
  check_int "two elements left" 2 (Collection.n_elements_of_doc c d)

let test_modify_document_diff () =
  let parse = Hopi_xml.Xml_parser.parse_string_exn in
  let c = Collection.create () in
  let _ =
    Collection.add_document c ~name:"x.xml"
      (parse {|<article id="r"><title id="t">old</title>
               <sec id="s1"><cite xlink:href="y.xml#r"/></sec>
               <sec id="s2"><p/></sec></article>|})
  in
  let y = Collection.add_document c ~name:"y.xml" (parse {|<article id="r"><p/></article>|}) in
  let idx = Hopi.create c in
  let x = Option.get (Collection.find_doc c "x.xml") in
  (* edit: drop s2, add s3 citing y, keep s1 *)
  let stats =
    Hopi.modify_document_diff idx x
      (parse {|<article id="r"><title id="t">new</title>
               <sec id="s1"><cite xlink:href="y.xml#r"/></sec>
               <sec id="s3"><cite xlink:href="y.xml#r"/></sec></article>|})
  in
  check_bool "no fallback" false stats.Maintenance.fell_back;
  check_bool "something deleted" true (stats.Maintenance.subtrees_deleted >= 1);
  check_bool "something inserted" true (stats.Maintenance.subtrees_inserted >= 1);
  check_bool "exact after diff modify" true (Hopi.self_check idx);
  (* the document id is preserved and both citations work *)
  let xr = Collection.doc_root_element c x in
  let yr = Collection.doc_root_element c y in
  check_bool "still linked" true (Hopi.connected idx xr yr)

let test_modify_document_diff_root_change_falls_back () =
  let parse = Hopi_xml.Xml_parser.parse_string_exn in
  let c = small_dblp ~n:6 () in
  let idx = Hopi.create c in
  let victim = List.nth (List.sort compare (Collection.doc_ids c)) 2 in
  let stats = Hopi.modify_document_diff idx victim (parse "<totally-new/>") in
  check_bool "fell back" true stats.Maintenance.fell_back;
  check_bool "exact" true (Hopi.self_check idx)

let prop_diff_modify_equals_full_modify =
  QCheck2.Test.make ~name:"diff modify keeps the index exact" ~count:10
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let cfg = { (Dblp.default ~n_docs:10) with seed = seed land 0xfffff } in
      let idx = Hopi.create (Dblp.generate cfg) in
      let c = Hopi.collection idx in
      let docs = List.sort compare (Collection.doc_ids c) in
      let victim = List.nth docs (seed mod List.length docs) in
      (* re-generate the same document under a different generator seed:
         same root tag, different citations/sections *)
      let replacement =
        Hopi_xml.Xml_parser.parse_string_exn
          (Dblp.document_xml { cfg with seed = cfg.Hopi_workload.Dblp_gen.seed + 1 }
             (victim * 31 mod cfg.Hopi_workload.Dblp_gen.n_docs))
      in
      let _ = Hopi.modify_document_diff idx victim replacement in
      Hopi.self_check idx)

let test_rebuild () =
  let c = small_dblp ~n:10 () in
  let idx = Hopi.create c in
  ignore (Hopi.remove_document idx (List.hd (List.sort compare (Collection.doc_ids c))));
  let r = Hopi.rebuild idx in
  check_bool "exact after rebuild" true (Hopi.self_check idx);
  check_bool "rebuild result is current" true (Hopi.size idx = Cover.size r.Build.cover)

let prop_maintenance_random_ops =
  QCheck2.Test.make ~name:"random op sequences keep the index exact" ~count:12
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Splitmix.create seed in
      let cfg = { (Dblp.default ~n_docs:14) with seed = seed land 0xffff } in
      let idx = Hopi.create (Dblp.generate cfg) in
      let next_doc = ref cfg.Dblp.n_docs in
      let ok = ref true in
      for _ = 1 to 6 do
        let c = Hopi.collection idx in
        let docs = Array.of_list (List.sort compare (Collection.doc_ids c)) in
        (match Splitmix.int rng 4 with
         | 0 ->
           (* delete a random document *)
           if Array.length docs > 2 then
             ignore (Hopi.remove_document idx (Splitmix.pick rng docs))
         | 1 ->
           (* insert a brand-new document *)
           let i = !next_doc in
           incr next_doc;
           (match
              Hopi.insert_document_xml idx ~name:(Dblp.doc_name i)
                (Dblp.document_xml cfg i)
            with
            | Ok _ -> ()
            | Error _ -> ok := false)
         | 2 ->
           (* add a link between two random roots *)
           let d1 = Splitmix.pick rng docs and d2 = Splitmix.pick rng docs in
           let u = Collection.doc_root_element c d1
           and v = Collection.doc_root_element c d2 in
           if u <> v && not (Hopi_graph.Digraph.mem_edge (Collection.element_graph c) u v)
           then ignore (Hopi.insert_link idx u v)
         | _ ->
           (* grow a random document by one element *)
           let d = Splitmix.pick rng docs in
           ignore
             (Hopi.insert_element idx ~doc:d
                ~parent:(Collection.doc_root_element c d)
                ~tag:"extra"));
        if not (Hopi.self_check idx) then ok := false
      done;
      !ok)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let base_suite =
  [
    ( "core.build",
      List.map
        (fun (name, config) ->
          Alcotest.test_case name `Quick (test_build_config (name, config)))
        config_cases
      @ [
          Alcotest.test_case "inex (tree only)" `Quick test_inex_build;
          Alcotest.test_case "psg vs incremental" `Quick test_psg_vs_incremental_same_relation;
          Alcotest.test_case "psg partitioned strategies" `Quick test_psg_partitioned_strategies;
          Alcotest.test_case "psg: a link source that is a link target" `Quick
            test_psg_source_that_is_target;
        ] );
    ( "core.hopi",
      [
        Alcotest.test_case "queries" `Quick test_hopi_queries;
        Alcotest.test_case "store agrees" `Quick test_hopi_store_matches;
        Alcotest.test_case "distance index" `Quick test_hopi_distance_index;
      ] );
    ( "core.maintenance",
      [
        Alcotest.test_case "insert documents" `Quick test_insert_document_incremental;
        Alcotest.test_case "insert element+link" `Quick test_insert_element_and_link;
        Alcotest.test_case "delete (random docs)" `Quick test_delete_documents_all_paths;
        Alcotest.test_case "delete non-separating" `Quick test_delete_nonseparating_document;
        Alcotest.test_case "delete separating" `Quick test_delete_separating_document;
        Alcotest.test_case "modify" `Quick test_modify_document;
        Alcotest.test_case "delete+reinsert" `Quick test_delete_then_reinsert_roundtrip;
        Alcotest.test_case "subtree insert/delete" `Quick test_subtree_insert_delete;
        Alcotest.test_case "subtree fast path" `Quick test_subtree_delete_fast_path;
        Alcotest.test_case "diff modify" `Quick test_modify_document_diff;
        Alcotest.test_case "diff modify fallback" `Quick
          test_modify_document_diff_root_change_falls_back;
        Alcotest.test_case "rebuild" `Quick test_rebuild;
      ]
      @ qsuite [ prop_maintenance_random_ops; prop_diff_modify_equals_full_modify ] );
  ]

(* {1 Distance answers under maintenance}

   The facade keeps no distance index through an update: every
   maintenance call drops the cached one and the next
   [Hopi.distance_index] rebuilds it from the element graph. *)

let dist_exact idx =
  Verify.dist_cover_vs_graph (Hopi.distance_index idx)
    (Collection.element_graph (Hopi.collection idx))
  = []

let test_dist_insert_edge () =
  let c = small_dblp ~n:8 () in
  let idx = Hopi.create c in
  check_bool "exact initially" true (dist_exact idx);
  (* add a shortcut link *)
  let docs = List.sort compare (Collection.doc_ids c) in
  let u = Collection.doc_root_element c (List.nth docs 0) in
  let v = Collection.doc_root_element c (List.nth docs 7) in
  if not (Hopi_graph.Digraph.mem_edge (Collection.element_graph c) u v) then begin
    ignore (Hopi.insert_link idx u v);
    check_bool "exact after shortcut" true (dist_exact idx)
  end

let test_dist_insert_edge_shortens_path () =
  (* chain 0 -> 1 -> 2 -> 3; adding 0 -> 3 must drop d(0,3) from 3 to 1 and
     leave other distances intact *)
  let parse = Hopi_xml.Xml_parser.parse_string_exn in
  let c = Collection.create () in
  let _ = Collection.add_document c ~name:"a.xml"
      (parse {|<a id="r"><x xlink:href="b.xml#r"/></a>|}) in
  let _ = Collection.add_document c ~name:"b.xml"
      (parse {|<b id="r"><x xlink:href="c.xml#r"/></b>|}) in
  let _ = Collection.add_document c ~name:"c.xml" (parse {|<c id="r"/>|}) in
  let idx = Hopi.create c in
  let ra = Collection.doc_root_element c (Option.get (Collection.find_doc c "a.xml")) in
  let rc = Collection.doc_root_element c (Option.get (Collection.find_doc c "c.xml")) in
  let dist () = Cover.dist (Hopi.distance_index idx) ra rc in
  Alcotest.(check (option int)) "before" (Some 4) (dist ());
  ignore (Hopi.insert_link idx ra rc);
  Alcotest.(check (option int)) "after" (Some 1) (dist ());
  check_bool "all distances exact" true (dist_exact idx)

let test_dist_insert_document () =
  let cfg = Dblp.default ~n_docs:10 in
  let c = Collection.create () in
  for i = 0 to 7 do
    ignore (Collection.add_document_xml c ~name:(Dblp.doc_name i) (Dblp.document_xml cfg i))
  done;
  let idx = Hopi.create c in
  ignore (Hopi.distance_index idx);
  for i = 8 to 9 do
    ignore (Hopi.insert_document_xml idx ~name:(Dblp.doc_name i) (Dblp.document_xml cfg i));
    check_bool (Printf.sprintf "exact after doc %d" i) true (dist_exact idx)
  done

let test_dist_delete_document () =
  let c = small_dblp ~n:12 () in
  let idx = Hopi.create c in
  ignore (Hopi.distance_index idx);
  let rng = Splitmix.create 21 in
  for _ = 1 to 6 do
    let docs = Array.of_list (List.sort compare (Collection.doc_ids c)) in
    ignore (Hopi.remove_document idx (Splitmix.pick rng docs));
    check_bool "exact after delete" true (dist_exact idx)
  done

let dist_suite =
  [
    ( "core.dist_maintenance",
      [
        Alcotest.test_case "insert edge" `Quick test_dist_insert_edge;
        Alcotest.test_case "shortcut shortens" `Quick test_dist_insert_edge_shortens_path;
        Alcotest.test_case "insert document" `Quick test_dist_insert_document;
        Alcotest.test_case "delete document" `Quick test_dist_delete_document;
      ] );
  ]



(* {1 Update traces (workload generator)} *)

let test_update_trace_replay () =
  let cfg = Dblp.default ~n_docs:15 in
  let c = Dblp.generate cfg in
  let idx = Hopi.create c in
  let ops =
    Hopi_workload.Update_gen.churn_trace ~seed:5 ~n_ops:8 (Dblp.document_xml cfg)
      (Hopi.collection idx)
  in
  check_bool "trace nonempty" true (ops <> []);
  List.iter
    (fun op ->
      let c = Hopi.collection idx in
      (match op with
       | Hopi_workload.Update_gen.Delete_doc name -> (
         match Collection.find_doc c name with
         | Some did -> ignore (Hopi.remove_document idx did)
         | None -> ())
       | Hopi_workload.Update_gen.Reinsert_doc (name, xml) ->
         if Collection.find_doc c name = None then
           (match Hopi.insert_document_xml idx ~name xml with
            | Ok _ -> ()
            | Error _ -> Alcotest.fail "bad regenerated xml")
       | Hopi_workload.Update_gen.Add_link (src, dst) -> (
         match (Collection.find_doc c src, Collection.find_doc c dst) with
         | Some ds, Some dd ->
           let u = Collection.doc_root_element c ds
           and v = Collection.doc_root_element c dd in
           if u <> v
              && not (Hopi_graph.Digraph.mem_edge (Collection.element_graph c) u v)
           then ignore (Hopi.insert_link idx u v)
         | _ -> ()));
      check_bool "exact after op" true (Hopi.self_check idx))
    ops

let deletion_trace_suite =
  [
    ( "core.update_trace",
      [ Alcotest.test_case "churn replay" `Quick test_update_trace_replay ] );
  ]


(* {1 Cyclic document-level graphs} *)

(* a citation cycle a -> b -> c -> a: every doc is both ancestor and
   descendant of every other, exercising the general deletion path and the
   distance fast-path guard *)
let cyclic_collection () =
  let parse = Hopi_xml.Xml_parser.parse_string_exn in
  let c = Collection.create () in
  let add name next =
    Collection.add_document c ~name
      (parse (Printf.sprintf {|<d id="r"><x xlink:href="%s#r"/><p/></d>|} next))
  in
  let a = add "a.xml" "b.xml" in
  let b = add "b.xml" "c.xml" in
  let cc = add "c.xml" "a.xml" in
  (c, a, b, cc)

let test_cycle_build_and_queries () =
  let c, a, _, cc = cyclic_collection () in
  let idx = Hopi.create c in
  check_bool "exact" true (Hopi.self_check idx);
  let ra = Collection.doc_root_element c a in
  let rc = Collection.doc_root_element c cc in
  check_bool "a -> c" true (Hopi.connected idx ra rc);
  check_bool "c -> a" true (Hopi.connected idx rc ra)

let test_cycle_delete_document () =
  let c, a, b, cc = cyclic_collection () in
  let idx = Hopi.create c in
  check_bool "cycle members do not separate" false (Maintenance.separates c b);
  let stats = Hopi.remove_document idx b in
  check_bool "general path" false stats.Maintenance.separating;
  check_bool "exact" true (Hopi.self_check idx);
  let ra = Collection.doc_root_element c a in
  let rc = Collection.doc_root_element c cc in
  check_bool "a no longer reaches c" false (Hopi.connected idx ra rc);
  check_bool "c still reaches a" true (Hopi.connected idx rc ra)

(* a deleted document on the cycle may carry a surviving pair's shortest
   path while the pair stays connected the other way round *)
let test_cycle_distance_maintenance () =
  let c, a, b, cc = cyclic_collection () in
  let idx = Hopi.create c in
  let ra = Collection.doc_root_element c a in
  let rc = Collection.doc_root_element c cc in
  Alcotest.(check (option int)) "a ~> c through b" (Some 4)
    (Cover.dist (Hopi.distance_index idx) ra rc);
  let st = Hopi.remove_document idx b in
  check_bool "general path" false st.Maintenance.separating;
  check_bool "distances exact" true (dist_exact idx);
  Alcotest.(check (option int)) "a no longer reaches c" None
    (Cover.dist (Hopi.distance_index idx) ra rc)

let test_cycle_flix () =
  let c, a, _, cc = cyclic_collection () in
  let flix = Hopi_flix.Flix.build c in
  let ra = Collection.doc_root_element c a in
  let rc = Collection.doc_root_element c cc in
  check_bool "a -> c via flix" true (Hopi_flix.Flix.connected flix ra rc);
  check_bool "c -> a via flix" true (Hopi_flix.Flix.connected flix rc ra)

let cycle_suite =
  [
    ( "core.cycles",
      [
        Alcotest.test_case "build" `Quick test_cycle_build_and_queries;
        Alcotest.test_case "delete" `Quick test_cycle_delete_document;
        Alcotest.test_case "distance delete" `Quick test_cycle_distance_maintenance;
        Alcotest.test_case "flix" `Quick test_cycle_flix;
      ] );
  ]


(* insertions drop the cached distance index like every deletion does;
   the next call rebuilds it over the grown element graph *)
let test_facade_keeps_distance_index_fresh () =
  let c = small_dblp ~n:8 () in
  let idx = Hopi.create c in
  let cached = Hopi.distance_index idx in
  check_bool "cached between updates" true (Hopi.distance_index idx == cached);
  let docs = List.sort compare (Collection.doc_ids c) in
  let root i = Collection.doc_root_element c (List.nth docs i) in
  let u = root 0 and v = root 6 in
  check_bool "no such link yet" false
    (Hopi_graph.Digraph.mem_edge (Collection.element_graph c) u v);
  ignore (Hopi.insert_link idx u v);
  check_bool "insert_link drops the cached index" false (Hopi.distance_index idx == cached);
  check_bool "exact after insert_link" true (dist_exact idx);
  let cached = Hopi.distance_index idx in
  let e = Hopi.insert_element idx ~doc:(List.nth docs 3) ~parent:(root 3) ~tag:"note" in
  let d = Hopi.distance_index idx in
  check_bool "insert_element drops the cached index" false (d == cached);
  check_bool "exact after insert_element" true (dist_exact idx);
  Alcotest.(check (option int)) "the new element is one edge down" (Some 1)
    (Cover.dist d (root 3) e)

let facade_dist_suite =
  [
    ( "core.facade_dist",
      [ Alcotest.test_case "insert keeps dist fresh" `Quick
          test_facade_keeps_distance_index_fresh ] );
  ]

let suite =
  base_suite @ dist_suite @ deletion_trace_suite @ cycle_suite @ facade_dist_suite
