module Digraph = Hopi_graph.Digraph
module Ihs = Hopi_util.Int_hashset

type t = {
  graph : Digraph.t;
  sources : Ihs.t;
  targets : Ihs.t;
  link_edges : (int * int) list;
}

let build ~part_of ~links ~reaches_within_partition =
  let graph = Digraph.create () in
  let sources = Ihs.create () and targets = Ihs.create () in
  List.iter
    (fun (u, v) ->
      Ihs.add sources u;
      Ihs.add targets v;
      Digraph.add_edge graph u v)
    links;
  (* intra-partition connections from link targets to link sources *)
  let by_part_src = Hashtbl.create 16 and by_part_tgt = Hashtbl.create 16 in
  let push h k x =
    let l = Option.value ~default:[] (Hashtbl.find_opt h k) in
    Hashtbl.replace h k (x :: l)
  in
  Ihs.iter (fun s -> push by_part_src (part_of s) s) sources;
  Ihs.iter (fun t -> push by_part_tgt (part_of t) t) targets;
  Hashtbl.iter
    (fun part tgts ->
      match Hashtbl.find_opt by_part_src part with
      | None -> ()
      | Some srcs ->
        List.iter
          (fun t ->
            List.iter
              (fun s ->
                if t <> s && reaches_within_partition t s then Digraph.add_edge graph t s)
              srcs)
          tgts)
    by_part_tgt;
  { graph; sources; targets; link_edges = links }
