module Digraph = Hopi_graph.Digraph

type t = {
  graph : Digraph.t;
  sources : int array;
  targets : int array;
  link_edges : (int * int) list;
}

let build ~links ~lin ~lout =
  let graph = Digraph.create () in
  List.iter (fun (u, v) -> Digraph.add_edge graph u v) links;
  let ends f = Array.of_list (List.sort_uniq compare (List.map f links)) in
  let sources = ends fst and targets = ends snd in
  (* within edges, read off the labels: every source under each center of
     Lin(s) ∪ {s}, then each target's Lout(t) ∪ {t} against those buckets *)
  let by_center = Hashtbl.create (4 * Array.length sources) in
  let bucket s c =
    Hashtbl.replace by_center c (s :: Option.value ~default:[] (Hashtbl.find_opt by_center c))
  in
  Array.iter
    (fun s ->
      bucket s s;
      lin s (bucket s))
    sources;
  Array.iter
    (fun t ->
      let within c =
        match Hashtbl.find_opt by_center c with
        | Some ss -> List.iter (fun s -> if s <> t then Digraph.add_edge graph t s) ss
        | None -> ()
      in
      within t;
      lout t within)
    targets;
  { graph; sources; targets; link_edges = links }
