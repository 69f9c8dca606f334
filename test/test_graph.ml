(* Tests for hopi_graph: Digraph, Traversal, Closure. *)

open Hopi_graph
module Ihs = Hopi_util.Int_hashset
module Int_set = Hopi_util.Int_set
module Splitmix = Hopi_util.Splitmix

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_list = Alcotest.(check (list int))

let of_edges edges =
  let g = Digraph.create () in
  List.iter (fun (u, v) -> Digraph.add_edge g u v) edges;
  g

(* A small diamond with a cycle on top:
   0 -> 1 -> 3, 0 -> 2 -> 3, 3 -> 4, 4 -> 3 (cycle), 5 isolated *)
let diamond () =
  let g = of_edges [ (0, 1); (1, 3); (0, 2); (2, 3); (3, 4); (4, 3) ] in
  Digraph.add_node g 5;
  g

(* {1 Digraph} *)

let succ g v =
  let acc = ref [] in
  Digraph.iter_succ g v (fun w -> acc := w :: !acc);
  List.sort compare !acc

let pred g v =
  let acc = ref [] in
  Digraph.iter_pred g v (fun w -> acc := w :: !acc);
  List.sort compare !acc

let test_digraph_basics () =
  let g = diamond () in
  check_int "nodes" 6 (Digraph.n_nodes g);
  check_int "edges" 6 (Digraph.n_edges g);
  check_bool "mem_edge" true (Digraph.mem_edge g 0 1);
  check_bool "no reverse" false (Digraph.mem_edge g 1 0);
  check_list "succ 0" [ 1; 2 ] (succ g 0);
  check_list "pred 3" [ 1; 2; 4 ] (pred g 3)

let test_digraph_idempotent_edges () =
  let g = of_edges [ (1, 2); (1, 2); (1, 2) ] in
  check_int "edges collapse" 1 (Digraph.n_edges g)

let test_digraph_remove_edge () =
  let g = diamond () in
  Digraph.remove_edge g 0 1;
  check_int "edges" 5 (Digraph.n_edges g);
  check_bool "gone" false (Digraph.mem_edge g 0 1);
  Digraph.remove_edge g 0 1;
  check_int "idempotent" 5 (Digraph.n_edges g)

let test_digraph_remove_node () =
  let g = diamond () in
  Digraph.remove_node g 3;
  check_int "nodes" 5 (Digraph.n_nodes g);
  check_int "edges" 2 (Digraph.n_edges g);
  check_list "succ 1 empty" [] (succ g 1);
  check_list "succ 4 empty" [] (succ g 4)

let test_digraph_induced () =
  let g = diamond () in
  let keep = Ihs.create () in
  List.iter (Ihs.add keep) [ 0; 1; 3 ];
  let sub = Digraph.induced_subgraph g keep in
  check_int "nodes" 3 (Digraph.n_nodes sub);
  check_int "edges" 2 (Digraph.n_edges sub);
  check_bool "kept" true (Digraph.mem_edge sub 0 1);
  check_bool "dropped" false (Digraph.mem_edge sub 0 2)

(* {1 Traversal} *)

let test_reachable () =
  let g = diamond () in
  let r = Traversal.reachable g [ 0 ] in
  check_int "count" 5 (Ihs.cardinal r);
  check_bool "5 not reached" false (Ihs.mem r 5);
  let rb = Traversal.reachable_backward g [ 3 ] in
  check_int "backward count" 5 (Ihs.cardinal rb);
  check_bool "4 reaches 3" true (Ihs.mem rb 4)

let test_reachable_avoiding () =
  let g = of_edges [ (0, 1); (1, 2); (0, 3); (3, 2) ] in
  let r = Traversal.reachable_avoiding g ~avoid:(fun v -> v = 1) [ 0 ] in
  check_bool "2 via 3" true (Ihs.mem r 2);
  let r2 = Traversal.reachable_avoiding g ~avoid:(fun v -> v = 1 || v = 3) [ 0 ] in
  check_bool "2 blocked" false (Ihs.mem r2 2)

let test_bfs_distances () =
  let g = diamond () in
  let d = Traversal.bfs_distances g 0 in
  check_int "d(0,0)" 0 (Hashtbl.find d 0);
  check_int "d(0,3)" 2 (Hashtbl.find d 3);
  check_int "d(0,4)" 3 (Hashtbl.find d 4);
  check_bool "unreachable" true (Hashtbl.find_opt d 5 = None)

let test_is_reachable () =
  let g = diamond () in
  check_bool "0->4" true (Traversal.is_reachable g 0 4);
  check_bool "4->3 cycle" true (Traversal.is_reachable g 4 3);
  check_bool "3->4 " true (Traversal.is_reachable g 3 4);
  check_bool "1->2 no" false (Traversal.is_reachable g 1 2);
  check_bool "self" true (Traversal.is_reachable g 5 5);
  check_bool "unknown" false (Traversal.is_reachable g 99 0)

(* {1 Closure} *)

let test_closure_diamond () =
  let g = diamond () in
  let c = Closure.compute g in
  (* 0:{0,1,2,3,4} 1:{1,3,4} 2:{2,3,4} 3:{3,4} 4:{3,4} 5:{5} = 5+3+3+2+2+1 *)
  check_int "connections" 16 (Closure.n_connections c);
  check_int "count matches" 16 (Closure.count_connections g);
  check_bool "0->4" true (Closure.mem c 0 4);
  check_bool "4->3" true (Closure.mem c 4 3);
  check_bool "reflexive" true (Closure.mem c 5 5);
  check_bool "1->2 no" false (Closure.mem c 1 2);
  check_list "succs 1" [ 1; 3; 4 ] (Int_set.to_list (Closure.succs c 1));
  check_list "preds 4" [ 0; 1; 2; 3; 4 ] (Int_set.to_list (Closure.preds c 4))

let test_closure_bounded () =
  (* the closure-aware partitioner's admission test *)
  let g = diamond () in
  check_bool "within budget" true (Closure.count_connections g <= 16);
  check_bool "over budget" false (Closure.count_connections g <= 15)

let test_closure_scc_members () =
  (* 3 and 4 form one SCC: they share their successor and ancestor sets *)
  let c = Closure.compute (diamond ()) in
  check_bool "3,4 same succs" true (Int_set.to_list (Closure.succs c 3) = Int_set.to_list (Closure.succs c 4));
  check_bool "3,4 same preds" true (Int_set.to_list (Closure.preds c 3) = Int_set.to_list (Closure.preds c 4));
  check_bool "0,1 differ" false (Int_set.to_list (Closure.succs c 0) = Int_set.to_list (Closure.succs c 1))

let test_closure_big_cycle () =
  let n = 50 in
  let g = of_edges (List.init n (fun i -> (i, (i + 1) mod n))) in
  check_int "one component: n^2" (n * n) (Closure.count_connections g);
  let c = Closure.compute g in
  check_int "n^2 materialised" (n * n) (Closure.n_connections c);
  check_int "every node reaches all" n (List.length (Int_set.to_list (Closure.succs c 17)))

let test_closure_scc_chain () =
  (* {0,1} -> {2,3}: 2*4 + 2*2 connections *)
  let g = of_edges [ (0, 1); (1, 0); (1, 2); (2, 3); (3, 2) ] in
  check_int "count" 12 (Closure.count_connections g);
  let c = Closure.compute g in
  check_list "succs 1" [ 0; 1; 2; 3 ] (Int_set.to_list (Closure.succs c 1));
  check_list "preds 3" [ 0; 1; 2; 3 ] (Int_set.to_list (Closure.preds c 3));
  check_list "succs 2" [ 2; 3 ] (Int_set.to_list (Closure.succs c 2))

let test_closure_word_boundaries () =
  (* a path of n singleton SCCs has n(n+1)/2 connections; n crosses the
     62-SCC words of the reach bitsets, and a back edge per ten nodes folds
     some of them into cycles *)
  List.iter
    (fun n ->
      let path = List.init (n - 1) (fun i -> (i, i + 1)) in
      check_int (Printf.sprintf "path %d" n) (n * (n + 1) / 2)
        (Closure.count_connections (of_edges path));
      let g = of_edges (path @ List.init (n / 10) (fun i -> ((10 * i) + 9, 10 * i))) in
      let c = Closure.compute g in
      check_int (Printf.sprintf "cycles %d" n) (Closure.n_connections c)
        (Closure.count_connections g);
      check_int "first node reaches all" n (List.length (Int_set.to_list (Closure.succs c 0))))
    [ 61; 62; 63; 123; 124; 125; 200 ]

let random_graph seed n p =
  let rng = Splitmix.create seed in
  let g = Digraph.create () in
  for v = 0 to n - 1 do
    Digraph.add_node g v
  done;
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Splitmix.float rng 1.0 < p then Digraph.add_edge g u v
    done
  done;
  g

let prop_closure_matches_bfs =
  QCheck2.Test.make ~name:"Closure.mem = BFS reachability" ~count:60
    QCheck2.Gen.(pair (int_range 0 10000) (int_range 1 18))
    (fun (seed, n) ->
      let g = random_graph seed n 0.15 in
      let c = Closure.compute g in
      let ok = ref true in
      Digraph.iter_nodes g (fun u ->
          let reach = Traversal.reachable g [ u ] in
          Digraph.iter_nodes g (fun v ->
              if Closure.mem c u v <> Ihs.mem reach v then ok := false));
      !ok)

let prop_closure_count_consistent =
  QCheck2.Test.make ~name:"count_connections = n_connections" ~count:60
    QCheck2.Gen.(pair (int_range 0 10000) (int_range 1 18))
    (fun (seed, n) ->
      let g = random_graph seed n 0.2 in
      Closure.count_connections g = Closure.n_connections (Closure.compute g))

(* Sparse ids, self-loops, isolated nodes and cycles; most edges point
   a few nodes ahead, so up to 300 nodes give well over 124 SCCs. *)
let sparse_graph seed n =
  let rng = Splitmix.create seed in
  let id i = (i * 7919) + (i mod 3) in
  let g = Digraph.create () in
  for i = 0 to n - 1 do
    Digraph.add_node g (id i)
  done;
  for _ = 1 to Splitmix.int rng (2 * n) do
    let u = Splitmix.int rng n in
    let v =
      match Splitmix.int rng 10 with
      | 0 -> u
      | 1 | 2 -> Splitmix.int rng n
      | _ -> min (n - 1) (u + 1 + Splitmix.int rng 4)
    in
    Digraph.add_edge g (id u) (id v)
  done;
  g

let prop_closure_oracle =
  QCheck2.Test.make ~name:"count, succs, preds = BFS oracle" ~count:80
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 1 300))
    (fun (seed, n) ->
      let g = sparse_graph seed n in
      let c = Closure.compute g in
      let total = ref 0 and ok = ref (Closure.n_nodes c = n) in
      Digraph.iter_nodes g (fun v ->
          let down = List.sort compare (Ihs.to_list (Traversal.reachable g [ v ])) in
          let up = List.sort compare (Ihs.to_list (Traversal.reachable_backward g [ v ])) in
          total := !total + List.length down;
          if not (down = Int_set.to_list (Closure.succs c v)
                  && up = Int_set.to_list (Closure.preds c v))
          then ok := false);
      !ok && Closure.n_connections c = !total && Closure.count_connections g = !total)

(* [succs_among] is strict: a node is in its own row only on a cycle *)
let test_succs_among_self () =
  let g = Digraph.create () in
  List.iter (fun (u, v) -> Digraph.add_edge g u v) [ (0, 1); (1, 0); (2, 2); (3, 4); (4, 0) ];
  let rows = Closure.succs_among g ~from:[| 0; 2; 3 |] ~among:[| 0; 2; 3 |] in
  check_list "2-cycle reaches itself" [ 0 ] (Array.to_list rows.(0));
  check_list "self-loop reaches itself" [ 1 ] (Array.to_list rows.(1));
  check_list "acyclic node does not" [ 0 ] (Array.to_list rows.(2))

let prop_succs_among_oracle =
  QCheck2.Test.make ~name:"succs_among = BFS oracle" ~count:80
    QCheck2.Gen.(triple (int_range 0 100_000) (int_range 1 300) (int_range 1 4))
    (fun (seed, n, stride) ->
      let g = sparse_graph seed n in
      let from = Array.of_list (Digraph.nodes g) in
      let among = Array.of_list (List.filteri (fun i _ -> i mod stride = 0) (Digraph.nodes g)) in
      let got = Closure.succs_among g ~from ~among in
      Array.for_all2
        (fun u js ->
          (* along at least one edge: BFS from the successors of [u] *)
          let succs = ref [] in
          Digraph.iter_succ g u (fun v -> succs := v :: !succs);
          let reach = Traversal.reachable g !succs in
          let want = List.filter (fun j -> Ihs.mem reach among.(j)) (List.init (Array.length among) Fun.id) in
          Array.to_list js = want)
        from got)

(* The intervals on the CSR of a cyclic graph, against BFS: [post]
   numbers exactly the SCCs, topologically, and [low u] is exactly the
   least [post] that [u] reaches. *)
let prop_intervals_oracle =
  QCheck2.Test.make ~name:"intervals = reachability definition" ~count:80
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 2 160))
    (fun (seed, n) ->
      let g = sparse_graph seed n in
      let ids, off, succ = Digraph.csr g ~pred:false in
      let post, low = Closure.intervals ~off ~succ in
      let reach = Array.map (fun v -> Traversal.reachable g [ v ]) ids in
      let reaches i j = Ihs.mem reach.(i) ids.(j) in
      let ok = ref true in
      for i = 0 to n - 1 do
        let least = ref max_int in
        for j = 0 to n - 1 do
          if reaches i j then begin
            least := min !least post.(j);
            if post.(j) > post.(i) then ok := false
          end;
          if (post.(i) = post.(j)) <> (reaches i j && reaches j i) then ok := false
        done;
        if low.(i) <> !least then ok := false
      done;
      !ok)

(* {1 Shortest distances} *)

let test_shortest_diamond () =
  let g = diamond () in
  let dist u v = Hashtbl.find_opt (Traversal.bfs_distances g u) v in
  Alcotest.(check (option int)) "0->3" (Some 2) (dist 0 3);
  Alcotest.(check (option int)) "0->0" (Some 0) (dist 0 0);
  Alcotest.(check (option int)) "4->4" (Some 0) (dist 4 4);
  Alcotest.(check (option int)) "3->4" (Some 1) (dist 3 4);
  Alcotest.(check (option int)) "1->2" None (dist 1 2)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "graph.digraph",
      [
        Alcotest.test_case "basics" `Quick test_digraph_basics;
        Alcotest.test_case "idempotent edges" `Quick test_digraph_idempotent_edges;
        Alcotest.test_case "remove edge" `Quick test_digraph_remove_edge;
        Alcotest.test_case "remove node" `Quick test_digraph_remove_node;
        Alcotest.test_case "induced subgraph" `Quick test_digraph_induced;
      ] );
    ( "graph.traversal",
      [
        Alcotest.test_case "reachable" `Quick test_reachable;
        Alcotest.test_case "reachable_avoiding" `Quick test_reachable_avoiding;
        Alcotest.test_case "bfs distances" `Quick test_bfs_distances;
        Alcotest.test_case "is_reachable" `Quick test_is_reachable;
      ] );
    ( "graph.closure",
      [
        Alcotest.test_case "diamond" `Quick test_closure_diamond;
        Alcotest.test_case "bounded" `Quick test_closure_bounded;
        Alcotest.test_case "scc members share sets" `Quick test_closure_scc_members;
        Alcotest.test_case "big cycle" `Quick test_closure_big_cycle;
        Alcotest.test_case "scc chain" `Quick test_closure_scc_chain;
        Alcotest.test_case "62-bit word boundaries" `Quick test_closure_word_boundaries;
        Alcotest.test_case "succs_among reaches itself only on a cycle" `Quick test_succs_among_self;
      ]
      @ qsuite
          [
            prop_closure_matches_bfs;
            prop_closure_count_consistent;
            prop_closure_oracle;
            prop_succs_among_oracle;
            prop_intervals_oracle;
          ] );
    ("graph.shortest", [ Alcotest.test_case "diamond" `Quick test_shortest_diamond ]);
  ]
