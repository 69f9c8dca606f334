(* Tests for hopi_partition: weights and the two partitioners. *)

open Hopi_partition
module Collection = Hopi_collection.Collection
module Partitioning = Hopi_collection.Partitioning
module Closure = Hopi_graph.Closure
module Dblp = Hopi_workload.Dblp_gen

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let dblp n = Dblp.generate (Dblp.default ~n_docs:n)

let test_weights_schemes () =
  let c = dblp 20 in
  List.iter
    (fun scheme ->
      let dg = Weights.doc_graph c scheme in
      (* every inter-document link contributes positive weight *)
      List.iter
        (fun (u, v) ->
          let du = Collection.doc_of_element c u
          and dv = Collection.doc_of_element c v in
          check_bool
            (Printf.sprintf "%s weight > 0" (Weights.scheme_name scheme))
            true
            (Hopi_collection.Doc_graph.edge_weight dg du dv > 0.0))
        (Collection.inter_links c))
    Weights.all_schemes

let test_weights_ad_exceeds_links () =
  let c = dblp 20 in
  let links = Weights.doc_graph c Weights.Links in
  let ad = Weights.doc_graph c Weights.A_times_D in
  (* A*D counts connections, never less than the plain link count *)
  Hashtbl.iter
    (fun (u, v) w ->
      check_bool "A*D >= links" true
        (Hopi_collection.Doc_graph.edge_weight ad u v >= w))
    links.Hopi_collection.Doc_graph.edge_weight

let test_random_partitioner_limit () =
  let c = dblp 40 in
  let dg = Weights.doc_graph c Weights.Links in
  let limit = 60 in
  let p = Random_partitioner.partition ~seed:7 ~max_elements:limit c dg in
  Partitioning.check p c;
  Array.iter
    (fun docs ->
      let elements =
        List.fold_left (fun acc d -> acc + Collection.n_elements_of_doc c d) 0 docs
      in
      (* a single oversized document may exceed the limit; groups of two or
         more must respect it *)
      if List.length docs > 1 then
        check_bool "within element limit" true (elements <= limit))
    p.Partitioning.docs_of_part

let test_random_partitioner_deterministic () =
  let c = dblp 30 in
  let dg = Weights.doc_graph c Weights.Links in
  let p1 = Random_partitioner.partition ~seed:3 ~max_elements:100 c dg in
  let p2 = Random_partitioner.partition ~seed:3 ~max_elements:100 c dg in
  check_int "same partition count" p1.Partitioning.n p2.Partitioning.n;
  check_int "same crossing links"
    (List.length p1.Partitioning.cross_links)
    (List.length p2.Partitioning.cross_links)

let test_closure_partitioner_limit () =
  let c = dblp 40 in
  let dg = Weights.doc_graph c Weights.A_times_D in
  let limit = 2000 in
  let p = Closure_partitioner.partition ~seed:7 ~max_connections:limit c dg in
  Partitioning.check p c;
  Array.iter
    (fun docs ->
      if List.length docs > 1 then begin
        let keep = Hopi_util.Int_hashset.create () in
        List.iter
          (fun d -> List.iter (Hopi_util.Int_hashset.add keep) (Collection.elements_of_doc c d))
          docs;
        let g = Hopi_graph.Digraph.induced_subgraph (Collection.element_graph c) keep in
        check_bool "within connection limit" true
          (Closure.count_connections g <= limit)
      end)
    p.Partitioning.docs_of_part

let test_closure_partitioner_packs_more () =
  (* with a generous budget the closure-aware partitioner should produce
     fewer partitions than a conservative node-count limit *)
  let c = dblp 40 in
  let dg = Weights.doc_graph c Weights.Links in
  let pr = Random_partitioner.partition ~seed:7 ~max_elements:60 c dg in
  let pc = Closure_partitioner.partition ~seed:7 ~max_connections:20_000 c dg in
  check_bool "fewer partitions" true (pc.Partitioning.n <= pr.Partitioning.n)

(* The closure-aware growth with the admission count taken by BFS from
   every node of the working graph, for [Closure_partitioner] to equal. *)
let bfs_partition ~seed ~max_connections c dg =
  let module Digraph = Hopi_graph.Digraph in
  let work = ref (Digraph.create ()) and rejected = ref 0 in
  let eg = Collection.element_graph c in
  let add_doc g d =
    List.iter
      (fun e ->
        Digraph.add_node g e;
        Digraph.iter_succ eg e (fun v -> if Digraph.mem_node g v then Digraph.add_edge g e v);
        Digraph.iter_pred eg e (fun u -> if Digraph.mem_node g u then Digraph.add_edge g u e))
      (Collection.elements_of_doc c d)
  in
  let count g =
    let n = ref 0 in
    Digraph.iter_nodes g (fun v ->
        n := !n + Hopi_util.Int_hashset.cardinal (Hopi_graph.Traversal.reachable g [ v ]));
    !n
  in
  let p =
    Grow.run ~seed c dg
      ~fresh_partition:(fun () -> work := Digraph.create ())
      ~admits:(fun d ->
        add_doc !work d;
        count !work <= max_connections
        || begin
          List.iter (Digraph.remove_node !work) (Collection.elements_of_doc c d);
          incr rejected;
          false
        end)
      ~added:(fun d ->
        match Collection.elements_of_doc c d with
        | e :: _ when not (Digraph.mem_node !work e) -> add_doc !work d
        | _ -> ())
  in
  (p, !rejected)

(* the closure size of partition 0 under [limit]: as a budget, partition 0
   grows the same way and its last admission lands on it exactly *)
let first_partition_count ~seed ~limit c dg =
  let p = Closure_partitioner.partition ~seed ~max_connections:limit c dg in
  let keep = Hopi_util.Int_hashset.create () in
  List.iter
    (fun d -> List.iter (Hopi_util.Int_hashset.add keep) (Collection.elements_of_doc c d))
    p.Partitioning.docs_of_part.(0);
  check_bool "partition 0 admitted a candidate" true
    (List.length p.Partitioning.docs_of_part.(0) > 1);
  Closure.count_connections (Hopi_graph.Digraph.induced_subgraph (Collection.element_graph c) keep)

let test_closure_partitioner_bfs_admission () =
  let exact =
    let c = dblp 40 in
    first_partition_count ~seed:3 ~limit:2000 c (Weights.doc_graph c Weights.A_times_D)
  in
  List.iter
    (fun (n_docs, seed, limit) ->
      let c = dblp n_docs in
      let dg = Weights.doc_graph c Weights.A_times_D in
      let want, rejected = bfs_partition ~seed ~max_connections:limit c dg in
      let got = Closure_partitioner.partition ~seed ~max_connections:limit c dg in
      check_bool (Printf.sprintf "limit %d rejects candidates" limit) true (rejected > 0);
      check_int "partitions" want.Partitioning.n got.Partitioning.n;
      List.iter
        (fun d ->
          check_int "partition of doc"
            (Hashtbl.find want.Partitioning.part_of_doc d)
            (Hashtbl.find got.Partitioning.part_of_doc d))
        (Collection.doc_ids c);
      check_bool "cross links" true (want.Partitioning.cross_links = got.Partitioning.cross_links))
    [ (40, 7, 500); (40, 3, 2000); (40, 3, exact); (80, 11, 5000) ]

let suite =
  [
    ( "partition.weights",
      [
        Alcotest.test_case "schemes positive" `Quick test_weights_schemes;
        Alcotest.test_case "A*D >= links" `Quick test_weights_ad_exceeds_links;
      ] );
    ( "partition.random",
      [
        Alcotest.test_case "limit" `Quick test_random_partitioner_limit;
        Alcotest.test_case "deterministic" `Quick test_random_partitioner_deterministic;
      ] );
    ( "partition.closure",
      [
        Alcotest.test_case "admission = BFS count" `Quick test_closure_partitioner_bfs_admission;
        Alcotest.test_case "limit" `Quick test_closure_partitioner_limit;
        Alcotest.test_case "packs more" `Quick test_closure_partitioner_packs_more;
      ] );
  ]
