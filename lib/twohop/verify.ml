module Digraph = Hopi_graph.Digraph
module Traversal = Hopi_graph.Traversal
module Ihs = Hopi_util.Int_hashset

type mismatch = { u : int; v : int; expected : bool; got : bool }

let cover_vs_graph cover g =
  let mismatches = ref [] in
  let nodes = List.sort compare (Digraph.nodes g) in
  List.iter
    (fun u ->
      let reach = Traversal.reachable g [ u ] in
      List.iter
        (fun v ->
          let expected = Ihs.mem reach v in
          let got = Cover.connected cover u v in
          if expected <> got then mismatches := { u; v; expected; got } :: !mismatches)
        nodes)
    nodes;
  List.rev !mismatches

type dist_mismatch = { du : int; dv : int; expected_d : int option; got_d : int option }

let dist_cover_vs_graph cover g =
  let mismatches = ref [] in
  let nodes = List.sort compare (Digraph.nodes g) in
  List.iter
    (fun u ->
      let dists = Traversal.bfs_distances g u in
      List.iter
        (fun v ->
          let expected_d = Hashtbl.find_opt dists v in
          let got_d = Cover.dist cover u v in
          if expected_d <> got_d then
            mismatches := { du = u; dv = v; expected_d; got_d } :: !mismatches)
        nodes)
    nodes;
  List.rev !mismatches
