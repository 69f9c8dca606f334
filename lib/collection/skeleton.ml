module Digraph = Hopi_graph.Digraph
module Ihs = Hopi_util.Int_hashset

type t = {
  graph : Digraph.t;
  sources : Ihs.t;
  targets : Ihs.t;
  links : (int * int) list;
}

let is_tree_ancestor c v x =
  let iv = Collection.element_info c v and ix = Collection.element_info c x in
  iv.Collection.el_doc = ix.Collection.el_doc
  && iv.Collection.el_pre <= ix.Collection.el_pre
  && iv.Collection.el_post >= ix.Collection.el_post

let all_links c =
  let intra =
    List.concat_map (fun did -> Collection.intra_links_of_doc c did) (Collection.doc_ids c)
  in
  List.rev_append (Collection.inter_links c) intra

let of_collection c =
  let links = all_links c in
  let graph = Digraph.create () in
  let sources = Ihs.create () and targets = Ihs.create () in
  List.iter
    (fun (u, v) ->
      Ihs.add sources u;
      Ihs.add targets v;
      Digraph.add_edge graph u v)
    links;
  (* connect link targets to link sources of the same document when the
     target is a tree ancestor-or-self of the source *)
  let by_doc = Hashtbl.create 64 in
  let bucket did =
    match Hashtbl.find_opt by_doc did with
    | Some b -> b
    | None ->
      let b = (ref [], ref []) in
      Hashtbl.add by_doc did b;
      b
  in
  Ihs.iter
    (fun s ->
      let srcs, _ = bucket (Collection.doc_of_element c s) in
      srcs := s :: !srcs)
    sources;
  Ihs.iter
    (fun tg ->
      let _, tgts = bucket (Collection.doc_of_element c tg) in
      tgts := tg :: !tgts)
    targets;
  Hashtbl.iter
    (fun _ (srcs, tgts) ->
      List.iter
        (fun v ->
          List.iter
            (fun x -> if v <> x && is_tree_ancestor c v x then Digraph.add_edge graph v x)
            !srcs)
        !tgts)
    by_doc;
  { graph; sources; targets; links }

type annotation = { a : int; d : int }

(* Bounded BFS accumulating [desc] of link targets forward and [anc] of
   link sources backward, as described in Section 4.3.  Each direction is
   one CSR with a gain per edge; rows keep the [Digraph] order, so a node
   is first reached over the same edge as by a BFS over the graph. *)
let annotate c t ~max_depth =
  let ids, off, succ = Digraph.csr t.graph ~pred:false in
  let _, poff, pred = Digraph.csr t.graph ~pred:true in
  let n = Array.length ids in
  let dense = Hashtbl.create n in
  Array.iteri (fun x v -> Hashtbl.replace dense v x) ids;
  (* per edge, what reaching its head over it adds: the head's [desc]
     forward or [anc] backward when the edge is a link, else nothing *)
  let fwd = Array.make (Array.length succ) 0 and bwd = Array.make (Array.length pred) 0 in
  let info x = Collection.element_info c ids.(x) in
  let weigh gain off adj x y w =
    for e = off.(x) to off.(x + 1) - 1 do
      if adj.(e) = y then gain.(e) <- w
    done
  in
  List.iter
    (fun (u, v) ->
      let u = Hashtbl.find dense u and v = Hashtbl.find dense v in
      weigh fwd off succ u v (info v).Collection.el_desc;
      weigh bwd poff pred v u (info u).Collection.el_anc)
    t.links;
  let stamp = Array.make n (-1) and depth = Array.make n 0 and queue = Array.make n 0 in
  let traverse off adj gain x s total =
    stamp.(x) <- s;
    depth.(x) <- 0;
    queue.(0) <- x;
    let head = ref 0 and tail = ref 1 and total = ref total in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      if depth.(u) < max_depth then
        for e = off.(u) to off.(u + 1) - 1 do
          let v = adj.(e) in
          if stamp.(v) <> s then begin
            stamp.(v) <- s;
            total := !total + gain.(e);
            depth.(v) <- depth.(u) + 1;
            queue.(!tail) <- v;
            incr tail
          end
        done
    done;
    !total
  in
  let result = Hashtbl.create n in
  Array.iteri
    (fun x v ->
      let d = traverse off succ fwd x (2 * x) (info x).Collection.el_desc in
      let a = traverse poff pred bwd x ((2 * x) + 1) (info x).Collection.el_anc in
      Hashtbl.replace result v { a; d })
    ids;
  result
