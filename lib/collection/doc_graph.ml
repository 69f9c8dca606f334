module Digraph = Hopi_graph.Digraph

type t = {
  graph : Digraph.t;
  edge_weight : (int * int, float) Hashtbl.t;
}

let of_collection ?(link_weight = fun _ -> 1.0) c =
  let graph = Digraph.create ~initial:(Collection.n_docs c) () in
  let edge_weight = Hashtbl.create 64 in
  List.iter (Digraph.add_node graph) (Collection.doc_ids c);
  List.iter
    (fun (u, v) ->
      let du = Collection.doc_of_element c u
      and dv = Collection.doc_of_element c v in
      Digraph.add_edge graph du dv;
      let w = link_weight (u, v) in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt edge_weight (du, dv)) in
      Hashtbl.replace edge_weight (du, dv) (prev +. w))
    (Collection.inter_links c);
  { graph; edge_weight }

let edge_weight t u v = Option.value ~default:0.0 (Hashtbl.find_opt t.edge_weight (u, v))
