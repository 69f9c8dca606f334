(* Tests for hopi_collection: Collection, Doc_graph, Skeleton, Partitioning,
   Psg. *)

open Hopi_collection
module Digraph = Hopi_graph.Digraph
module Traversal = Hopi_graph.Traversal
module Ihs = Hopi_util.Int_hashset

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let parse = Hopi_xml.Xml_parser.parse_string_exn

(* Three documents as in the paper's Figure 1 spirit: d1 cites d2 and d3,
   d2 cites d3, plus an intra-document link in d1. *)
let doc1 =
  {|<article id="r"><title id="t"/><sec><cite xlink:href="d2.xml#r"/></sec>
    <sec><cite xlink:href="d3.xml"/><back idref="t"/></sec></article>|}

let doc2 = {|<article id="r"><body><cite xlink:href="d3.xml"/></body></article>|}

let doc3 = {|<article id="r"><body><p/><p/></body></article>|}

let make_collection () =
  let c = Collection.create () in
  let d1 = Collection.add_document c ~name:"d1.xml" (parse doc1) in
  let d2 = Collection.add_document c ~name:"d2.xml" (parse doc2) in
  let d3 = Collection.add_document c ~name:"d3.xml" (parse doc3) in
  (c, d1, d2, d3)

(* {1 Collection basics} *)

let test_counts () =
  let c, d1, d2, d3 = make_collection () in
  check_int "docs" 3 (Collection.n_docs c);
  check_int "d1 elements" 7 (Collection.n_elements_of_doc c d1);
  check_int "d2 elements" 3 (Collection.n_elements_of_doc c d2);
  check_int "d3 elements" 4 (Collection.n_elements_of_doc c d3);
  check_int "total" 14 (Collection.n_elements c);
  check_int "inter links" 3 (Collection.n_inter_links c);
  check_int "all links" 4 (Collection.n_links c);
  check_int "intra of d1" 1 (List.length (Collection.intra_links_of_doc c d1));
  check_int "no pending" 0 (Collection.pending_links c);
  ignore (d2, d3)

let test_forward_references () =
  (* d1 references d2 before d2 exists: pending, then resolved *)
  let c = Collection.create () in
  ignore (Collection.add_document c ~name:"d1.xml" (parse doc1));
  check_int "pending until targets exist" 2 (Collection.pending_links c);
  ignore (Collection.add_document c ~name:"d2.xml" (parse doc2));
  (* d1 -> d2 resolved, but d2 brings its own reference to d3 *)
  check_int "two pending left" 2 (Collection.pending_links c);
  ignore (Collection.add_document c ~name:"d3.xml" (parse doc3));
  check_int "all resolved" 0 (Collection.pending_links c);
  check_int "links" 3 (Collection.n_inter_links c)

let test_element_graph_reachability () =
  let c, d1, _, d3 = make_collection () in
  let g = Collection.element_graph c in
  let r1 = Collection.doc_root_element c d1 in
  let r3 = Collection.doc_root_element c d3 in
  check_bool "d1 root reaches d3 root via links" true (Traversal.is_reachable g r1 r3);
  check_bool "no back edge" false (Traversal.is_reachable g r3 r1)

let test_element_info () =
  let c, d1, _, _ = make_collection () in
  let r = Collection.doc_root_element c d1 in
  let info = Collection.element_info c r in
  check_int "root anc" 1 info.Collection.el_anc;
  check_int "root desc = all elements" 7 info.Collection.el_desc;
  check_int "root pre" 0 info.Collection.el_pre;
  check_bool "root parent" true (info.Collection.el_parent = None);
  Alcotest.(check string) "tag" "article" (Collection.tag_of c r)

let test_tag_index () =
  let c, _, _, _ = make_collection () in
  check_int "three articles" 3 (List.length (Collection.elements_with_tag c "article"));
  check_int "two cites in d1 + one in d2" 3
    (List.length (Collection.elements_with_tag c "cite"));
  check_int "unknown" 0 (List.length (Collection.elements_with_tag c "zzz"))

let test_remove_document_restores_pending () =
  let c, _, d2, _ = make_collection () in
  let n_els = Collection.n_elements c in
  Collection.remove_document c d2;
  check_int "docs" 2 (Collection.n_docs c);
  check_int "elements dropped" (n_els - 3) (Collection.n_elements c);
  (* d1 -> d2 link becomes pending again; d2 -> d3 link dropped *)
  check_int "pending restored" 1 (Collection.pending_links c);
  check_int "links left" 1 (Collection.n_inter_links c);
  (* re-adding d2 restores both its own link and the pending one *)
  ignore (Collection.add_document c ~name:"d2.xml" (parse doc2));
  check_int "relinked" 3 (Collection.n_inter_links c);
  check_int "no pending" 0 (Collection.pending_links c)

let test_duplicate_name_rejected () =
  let c, _, _, _ = make_collection () in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Collection.add_document: duplicate name \"d1.xml\"") (fun () ->
      ignore (Collection.add_document c ~name:"d1.xml" (parse doc3)))

let test_add_element_renumbers () =
  let c, d1, _, _ = make_collection () in
  let r = Collection.doc_root_element c d1 in
  let e = Collection.add_element c ~doc:d1 ~parent:r ~tag:"extra" in
  check_int "count" 8 (Collection.n_elements_of_doc c d1);
  let ri = Collection.element_info c r in
  check_int "root desc grew" 8 ri.Collection.el_desc;
  let ei = Collection.element_info c e in
  check_int "child anc" 2 ei.Collection.el_anc;
  check_bool "tree edge" true (Digraph.mem_edge (Collection.element_graph c) r e)

let test_add_remove_link () =
  let c, d1, _, d3 = make_collection () in
  let r1 = Collection.doc_root_element c d1 in
  let r3 = Collection.doc_root_element c d3 in
  let kind = Collection.add_link c r3 r1 in
  check_bool "inter" true (kind = Collection.Inter);
  check_bool "edge" true (Digraph.mem_edge (Collection.element_graph c) r3 r1);
  Collection.remove_link c r3 r1;
  check_bool "edge gone" false (Digraph.mem_edge (Collection.element_graph c) r3 r1);
  Alcotest.check_raises "double remove"
    (Invalid_argument "Collection.remove_link: not an inter-document link") (fun () ->
      Collection.remove_link c r3 r1)

let test_dangling_fragment_stays_pending () =
  let c = Collection.create () in
  ignore
    (Collection.add_document c ~name:"a.xml"
       (parse {|<a><cite xlink:href="b.xml#nonexistent"/></a>|}));
  ignore (Collection.add_document c ~name:"b.xml" (parse "<b><c id=\"other\"/></b>"));
  check_int "unresolvable fragment pending" 1 (Collection.pending_links c);
  check_int "no link" 0 (Collection.n_inter_links c)

(* {1 Doc_graph} *)

let test_doc_graph () =
  let c, d1, d2, d3 = make_collection () in
  let dg = Doc_graph.of_collection c in
  check_int "nodes" 3 (Digraph.n_nodes dg.Doc_graph.graph);
  check_int "edges" 3 (Digraph.n_edges dg.Doc_graph.graph);
  check_bool "d1->d2" true (Digraph.mem_edge dg.Doc_graph.graph d1 d2);
  Alcotest.(check (float 1e-9)) "weight d1->d2" 1.0 (Doc_graph.edge_weight dg d1 d2);
  ignore d3

(* {1 Skeleton} *)

let test_skeleton () =
  let c, _, _, _ = make_collection () in
  let s = Skeleton.of_collection c in
  (* link sources: 2 cites in d1, 1 cite in d2, 1 back in d1 = 4
     link targets: d2 root(frag r), d3 root (x2 targets same), t in d1 *)
  check_int "sources" 4 (Ihs.cardinal s.Skeleton.sources);
  check_int "targets" 3 (Ihs.cardinal s.Skeleton.targets);
  check_int "links" 4 (List.length s.Skeleton.links);
  (* d2's root is a link target and an ancestor of d2's cite (a source):
     the skeleton must contain that intra-document edge *)
  let r2 = Collection.doc_root_element c (Option.get (Collection.find_doc c "d2.xml")) in
  let cite2 =
    List.find
      (fun e -> Collection.doc_of_element c e = Collection.doc_of_element c r2)
      (Collection.elements_with_tag c "cite")
  in
  check_bool "target->source edge" true (Digraph.mem_edge s.Skeleton.graph r2 cite2)

let test_skeleton_annotation () =
  let c, _, _, _ = make_collection () in
  let s = Skeleton.of_collection c in
  let ann = Skeleton.annotate c s ~max_depth:8 in
  (* D of d1's first cite >= its own desc (1) + d2 root's desc (3) *)
  Hashtbl.iter
    (fun x a ->
      check_bool "A >= anc" true (a.Skeleton.a >= 1);
      check_bool "D >= desc" true (a.Skeleton.d >= 1);
      ignore x)
    ann;
  check_int "every node annotated" (Digraph.n_nodes s.Skeleton.graph) (Hashtbl.length ann)

let test_skeleton_depth_bound () =
  (* a longer chain of documents: with max_depth 1 the approximation stops
     after one hop, so D(x) must be smaller than with a generous bound *)
  let parse = Hopi_xml.Xml_parser.parse_string_exn in
  let c = Collection.create () in
  for i = 0 to 4 do
    let next = Printf.sprintf "chain%d.xml" (i + 1) in
    ignore
      (Collection.add_document c
         ~name:(Printf.sprintf "chain%d.xml" i)
         (parse
            (if i < 4 then
               Printf.sprintf {|<d id="r"><x xlink:href="%s#r"/><p/><p/></d>|} next
             else {|<d id="r"><p/><p/></d>|})))
  done;
  let s = Skeleton.of_collection c in
  let shallow = Skeleton.annotate c s ~max_depth:1 in
  let deep = Skeleton.annotate c s ~max_depth:16 in
  (* the first link source reaches the whole chain at depth 16 *)
  let src =
    List.find
      (fun e -> Collection.doc_of_element c e = Option.get (Collection.find_doc c "chain0.xml"))
      (Collection.elements_with_tag c "x")
  in
  let d_shallow = (Hashtbl.find shallow src).Skeleton.d in
  let d_deep = (Hashtbl.find deep src).Skeleton.d in
  check_bool "deep sees more descendants" true (d_deep > d_shallow)

(* The hashtable BFS [Skeleton.annotate] ran before it moved onto CSR
   rows, kept verbatim as the reference the CSR version must equal. *)
let reference_annotate c (t : Skeleton.t) ~max_depth =
  let is_link =
    let h = Hashtbl.create (List.length t.links) in
    List.iter (fun l -> Hashtbl.replace h l ()) t.links;
    fun u v -> Hashtbl.mem h (u, v)
  in
  let anc x = (Collection.element_info c x).Collection.el_anc in
  let desc x = (Collection.element_info c x).Collection.el_desc in
  let result = Hashtbl.create (Digraph.n_nodes t.graph) in
  (* Bounded BFS accumulating [desc] of link targets forward and [anc] of
     link sources backward, as described in Section 4.3. *)
  let traverse iter_next edge_of x gain0 gain =
    let total = ref gain0 in
    let seen = Ihs.create () in
    let q = Queue.create () in
    Ihs.add seen x;
    Queue.add (x, 0) q;
    while not (Queue.is_empty q) do
      let u, du = Queue.pop q in
      if du < max_depth then
        iter_next t.graph u (fun v ->
            if not (Ihs.mem seen v) then begin
              Ihs.add seen v;
              let eu, ev = edge_of u v in
              if is_link eu ev then total := !total + gain v;
              Queue.add (v, du + 1) q
            end)
    done;
    !total
  in
  Digraph.iter_nodes t.graph (fun x ->
      let d = traverse Digraph.iter_succ (fun u v -> (u, v)) x (desc x) desc in
      let a = traverse Digraph.iter_pred (fun u v -> (v, u)) x (anc x) anc in
      Hashtbl.replace result x { Skeleton.a; d });
  result

(* From the skeleton node [x], [y] is two hops away over a link (via [s])
   and over a tree edge (via [r]): whichever of [r] and [s] the BFS visits
   first decides whether [desc y] counts, so the traversal order matters. *)
let two_paths_collection () =
  let c = Collection.create () in
  List.iter
    (fun (name, xml) -> ignore (Collection.add_document c ~name (parse xml) : int))
    [
      ("a.xml", {|<a id="x" xlink:href="b.xml#r"><s xlink:href="b.xml#y"/></a>|});
      ("b.xml", {|<b id="r"><p/><c id="y" xlink:href="a.xml#x"><p/></c></b>|});
    ];
  c

let test_skeleton_annotate_reference () =
  let module Dblp = Hopi_workload.Dblp_gen in
  List.iter
    (fun (what, c) ->
      let s = Skeleton.of_collection c in
      for max_depth = 1 to 8 do
        let got = Skeleton.annotate c s ~max_depth and want = reference_annotate c s ~max_depth in
        let bindings h = List.of_seq (Hashtbl.to_seq h) in
        if bindings got <> bindings want then
          Alcotest.failf "%s, max_depth %d: annotations differ" what max_depth
      done)
    (("two paths", two_paths_collection ())
    :: List.map
         (fun (seed, n_docs) ->
           ( Printf.sprintf "dblp seed %d, %d docs" seed n_docs,
             Dblp.generate { (Dblp.default ~n_docs) with Dblp.seed } ))
         [ (1, 30); (7, 60); (21, 120) ])

let test_is_tree_ancestor () =
  let c, d1, _, _ = make_collection () in
  let r = Collection.doc_root_element c d1 in
  List.iter
    (fun e -> check_bool "root is ancestor of all" true (Skeleton.is_tree_ancestor c r e))
    (Collection.elements_of_doc c d1);
  let c2root = Collection.doc_root_element c (Option.get (Collection.find_doc c "d2.xml")) in
  check_bool "cross-doc" false (Skeleton.is_tree_ancestor c r c2root)

(* {1 Partitioning / Psg} *)

let test_partitioning_singleton () =
  let c, _, _, _ = make_collection () in
  let p = Partitioning.singleton_per_doc c in
  Partitioning.check p c;
  check_int "n" 3 p.Partitioning.n;
  check_int "all links cross" 3 (List.length p.Partitioning.cross_links)

let test_partitioning_whole () =
  let c, _, _, _ = make_collection () in
  let p = Partitioning.whole_collection c in
  Partitioning.check p c;
  check_int "no cross links" 0 (List.length p.Partitioning.cross_links)

let test_partition_subgraph () =
  let c, d1, d2, _ = make_collection () in
  (* put d1+d2 together, d3 alone *)
  let part_of_doc = Hashtbl.create 3 in
  List.iter
    (fun did -> Hashtbl.replace part_of_doc did (if did = d1 || did = d2 then 0 else 1))
    (Collection.doc_ids c);
  let p = Partitioning.make c ~part_of_doc ~n:2 in
  Partitioning.check p c;
  check_int "cross = links into d3" 2 (List.length p.Partitioning.cross_links);
  let g0 = Partitioning.element_subgraph p c 0 in
  check_int "partition 0 elements" 10 (Digraph.n_nodes g0);
  (* contains the d1->d2 link but not links into d3 *)
  check_int "edges: 6 tree(d1) + 2 tree(d2) + 1 intra + 1 link" 10 (Digraph.n_edges g0)

(* The PSG read off the partition covers' labels has exactly the edges of
   the PSG whose within edges come from BFS restricted to the common
   partition. *)
let psg_of_covers c p =
  let covers =
    Array.init p.Partitioning.n (fun q ->
        fst (Hopi_twohop.Builder.build (Hopi_graph.Closure.compute (Partitioning.element_subgraph p c q))))
  in
  let label iter v f = iter covers.(Partitioning.part_of_element p c v) v f in
  let psg =
    Psg.build ~links:p.Partitioning.cross_links ~lin:(label Hopi_twohop.Cover.iter_lin)
      ~lout:(label Hopi_twohop.Cover.iter_lout)
  in
  let g = Collection.element_graph c in
  let bfs = Digraph.create () in
  List.iter (fun (s, t) -> Digraph.add_edge bfs s t) p.Partitioning.cross_links;
  (* the link ends, each side once and ascending *)
  let ends f = Array.of_list (List.sort_uniq compare (List.map f p.Partitioning.cross_links)) in
  check_bool "sources = link sources, ascending" true (psg.Psg.sources = ends fst);
  check_bool "targets = link targets, ascending" true (psg.Psg.targets = ends snd);
  Array.iter
    (fun t ->
      let part = Partitioning.part_of_element p c t in
      let ok v = Partitioning.part_of_element p c v = part in
      let seen = Traversal.reachable_avoiding g ~avoid:(fun v -> not (ok v)) [ t ] in
      Array.iter (fun s -> if s <> t && Ihs.mem seen s then Digraph.add_edge bfs t s) psg.Psg.sources)
    psg.Psg.targets;
  let edges g =
    let l = ref [] in
    Digraph.iter_edges g (fun u v -> l := (u, v) :: !l);
    List.sort compare !l
  in
  check_bool "labels = BFS edges" true (edges psg.Psg.graph = edges bfs);
  psg

let partitioning c ~together =
  let part_of_doc = Hashtbl.create 3 in
  List.iter
    (fun did -> Hashtbl.replace part_of_doc did (if List.mem did together then 0 else 1))
    (Collection.doc_ids c);
  Partitioning.make c ~part_of_doc ~n:2

let test_psg () =
  let c, d1, d2, _ = make_collection () in
  let psg = psg_of_covers c (partitioning c ~together:[ d1; d2 ]) in
  check_int "sources: d1 cite + d2 cite" 2 (Array.length psg.Psg.sources);
  check_int "targets: d3 root" 1 (Array.length psg.Psg.targets);
  (* cross links: both into d3 root; no target->source edges possible in
     partition 1 (d3 has no sources) *)
  check_int "edges" 2 (Digraph.n_edges psg.Psg.graph);
  (* d2 alone: d2's root reaches its own cite, a link source *)
  let psg = psg_of_covers c (partitioning c ~together:[ d2 ]) in
  check_int "sources: d1 cite to d2 + d2 cite" 2 (Array.length psg.Psg.sources);
  check_int "targets: d2 root + d3 root" 2 (Array.length psg.Psg.targets);
  check_int "edges: 2 links + 1 within" 3 (Digraph.n_edges psg.Psg.graph)

(* The within edges come from the centers alone: [t -> s] for a common
   center of [Lout(t) ∪ {t}] and [Lin(s) ∪ {s}], whether it is [s], [t] or
   a third node; never [t -> t] for a node that is both. *)
let test_psg_within_from_labels () =
  let lout = [ (10, [ 11 ]); (30, [ 99 ]); (40, [ 98 ]); (50, [ 51 ]) ]
  and lin = [ (21, [ 20 ]); (31, [ 99 ]); (41, [ 97 ]); (50, [ 20 ]) ] in
  let label l v f = List.iter (fun c -> f c 0) (Option.value ~default:[] (List.assoc_opt v l)) in
  let links =
    [ (11, 1); (21, 1); (31, 1); (41, 1); (50, 1); (0, 10); (0, 20); (0, 30); (0, 40); (0, 50) ]
  in
  let psg = Psg.build ~links ~lin:(label lin) ~lout:(label lout) in
  let g = psg.Psg.graph in
  check_bool "s in Lout(t)" true (Digraph.mem_edge g 10 11);
  check_bool "t in Lin(s)" true (Digraph.mem_edge g 20 21);
  check_bool "a common third center" true (Digraph.mem_edge g 30 31);
  check_bool "t in Lin(s), s a target too" true (Digraph.mem_edge g 20 50);
  check_bool "no common center" false (Digraph.mem_edge g 40 41);
  check_bool "no self edge" false (Digraph.mem_edge g 50 50);
  check_int "edges: 10 links + 4 within" 14 (Digraph.n_edges g)

let suite =
  [
    ( "collection.basics",
      [
        Alcotest.test_case "counts" `Quick test_counts;
        Alcotest.test_case "forward refs" `Quick test_forward_references;
        Alcotest.test_case "element graph" `Quick test_element_graph_reachability;
        Alcotest.test_case "element info" `Quick test_element_info;
        Alcotest.test_case "tag index" `Quick test_tag_index;
        Alcotest.test_case "remove doc" `Quick test_remove_document_restores_pending;
        Alcotest.test_case "duplicate name" `Quick test_duplicate_name_rejected;
        Alcotest.test_case "add element" `Quick test_add_element_renumbers;
        Alcotest.test_case "add/remove link" `Quick test_add_remove_link;
        Alcotest.test_case "dangling fragment" `Quick test_dangling_fragment_stays_pending;
      ] );
    ("collection.doc_graph", [ Alcotest.test_case "basic" `Quick test_doc_graph ]);
    ( "collection.skeleton",
      [
        Alcotest.test_case "structure" `Quick test_skeleton;
        Alcotest.test_case "annotation" `Quick test_skeleton_annotation;
        Alcotest.test_case "depth bound" `Quick test_skeleton_depth_bound;
        Alcotest.test_case "tree ancestor" `Quick test_is_tree_ancestor;
        Alcotest.test_case "annotate = hashtable BFS" `Quick test_skeleton_annotate_reference;
      ] );
    ( "collection.partitioning",
      [
        Alcotest.test_case "singleton" `Quick test_partitioning_singleton;
        Alcotest.test_case "whole" `Quick test_partitioning_whole;
        Alcotest.test_case "subgraph" `Quick test_partition_subgraph;
        Alcotest.test_case "psg" `Quick test_psg;
        Alcotest.test_case "psg within edges from labels" `Quick test_psg_within_from_labels;
      ] );
  ]
