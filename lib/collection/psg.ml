module Digraph = Hopi_graph.Digraph
module Ihs = Hopi_util.Int_hashset

type t = {
  graph : Digraph.t;
  sources : Ihs.t;
  targets : Ihs.t;
  link_edges : (int * int) list;
}

let build ~links ~lin ~lout =
  let graph = Digraph.create () in
  let sources = Ihs.create () and targets = Ihs.create () in
  List.iter
    (fun (u, v) ->
      Ihs.add sources u;
      Ihs.add targets v;
      Digraph.add_edge graph u v)
    links;
  (* within edges, read off the labels: every source under each center of
     Lin(s) ∪ {s}, then each target's Lout(t) ∪ {t} against those buckets *)
  let by_center = Hashtbl.create (4 * Ihs.cardinal sources) in
  let bucket s c =
    Hashtbl.replace by_center c (s :: Option.value ~default:[] (Hashtbl.find_opt by_center c))
  in
  Ihs.iter
    (fun s ->
      bucket s s;
      lin s (bucket s))
    sources;
  Ihs.iter
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
