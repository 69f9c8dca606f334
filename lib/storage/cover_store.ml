module Ihs = Hopi_util.Int_hashset
module Cover = Hopi_twohop.Cover
module Dist_cover = Hopi_twohop.Dist_cover
module Codec = Hopi_twohop.Label_codec

type t = {
  pgr : Pager.t;
  lin : Table.t;
  lout : Table.t;
  nodes : Btree.t;  (* registry: (id, 0, 0) *)
  with_dist : bool;
}

let save t =
  let entry tree =
    { Catalog.root = Btree.root tree; length = Btree.length tree }
  in
  let lin_fwd, lin_bwd = Table.trees t.lin in
  let lout_fwd, lout_bwd = Table.trees t.lout in
  Catalog.write t.pgr
    {
      Catalog.kind = Catalog.Cover;
      with_dist = t.with_dist;
      trees = [| entry lin_fwd; entry lin_bwd; entry lout_fwd; entry lout_bwd;
                 entry t.nodes |];
    };
  Pager.commit t.pgr

let open_pager pgr =
  let cat = Catalog.read pgr in
  Catalog.expect Catalog.Cover cat;
  let tree i =
    let e = cat.Catalog.trees.(i) in
    Btree.of_root pgr ~root:e.Catalog.root ~length:e.Catalog.length
  in
  {
    pgr;
    lin = Table.of_trees ~fwd:(tree 0) ~bwd:(tree 1);
    lout = Table.of_trees ~fwd:(tree 2) ~bwd:(tree 3);
    nodes = tree 4;
    with_dist = cat.Catalog.with_dist;
  }

let pager t = t.pgr

let mem_node t v = Btree.mem t.nodes (v, 0, 0)

let with_dist t = t.with_dist

let iter_nodes t f = Btree.iter_all t.nodes (fun (v, _, _) -> f v)

let iter_lin t v f = Table.iter_by_id t.lin v (fun ~label ~dist -> f ~center:label ~dist)

let iter_lout t u f = Table.iter_by_id t.lout u (fun ~label ~dist -> f ~center:label ~dist)

let iter_in_by_center t w f = Table.iter_by_label t.lin w (fun ~id ~dist -> f ~node:id ~dist)

let iter_out_by_center t w f = Table.iter_by_label t.lout w (fun ~id ~dist -> f ~node:id ~dist)

(* {1 Writing a store}

   All rows of a table are collected up front and handed to the table's
   bulk loader, which sorts them and writes every page once, in key order.
   Plain covers pack each (node, center) row into one OCaml int so the
   sorts are cheap monomorphic int sorts.  Trees are built in the
   catalog's slot order so the page layout is deterministic. *)

let sorted_nodes n iter =
  let a = Array.make n 0 in
  let i = ref 0 in
  iter (fun v ->
      a.(!i) <- v;
      incr i);
  Array.sort Int.compare a;
  a

let tree_of_nodes pgr nodes =
  let i = ref 0 in
  Btree.bulk_load pgr ~next:(fun () ->
      if !i >= Array.length nodes then None
      else begin
        let v = nodes.(!i) in
        incr i;
        Some (v, 0, 0)
      end)

let of_cover pgr cover =
  Catalog.reserve "Cover_store.of_cover" pgr;
  let nodes = sorted_nodes (Cover.n_nodes cover) (Cover.iter_nodes cover) in
  let table ~cardinal ~iter =
    let total = Array.fold_left (fun acc v -> acc + cardinal cover v) 0 nodes in
    let a = Array.make total 0 in
    let i = ref 0 in
    Array.iter
      (fun v ->
        iter cover v (fun w ->
            a.(!i) <- Table.pack ~id:v ~label:w;
            incr i))
      nodes;
    Table.of_pairs pgr a
  in
  let lin = table ~cardinal:Cover.lin_cardinal ~iter:Cover.iter_lin in
  let lout = table ~cardinal:Cover.lout_cardinal ~iter:Cover.iter_lout in
  { pgr; lin; lout; nodes = tree_of_nodes pgr nodes; with_dist = false }

let of_dist_cover pgr cover =
  Catalog.reserve "Cover_store.of_dist_cover" pgr;
  let nodes = sorted_nodes (Dist_cover.n_nodes cover) (Dist_cover.iter_nodes cover) in
  let any_dist = ref false in
  let table iter =
    let buf = Hopi_util.Dyn_array.create () in
    Array.iter
      (fun v ->
        iter cover v (fun w d ->
            if d > 0 then any_dist := true;
            Hopi_util.Dyn_array.push buf (v, w, d)))
      nodes;
    Table.of_rows pgr
      (Array.init (Hopi_util.Dyn_array.length buf) (Hopi_util.Dyn_array.get buf))
  in
  let lin = table Dist_cover.iter_lin in
  let lout = table Dist_cover.iter_lout in
  { pgr; lin; lout; nodes = tree_of_nodes pgr nodes; with_dist = !any_dist }

(* {1 Queries}

   Reach, dist, desc and anc are written once, over a [source]: a node
   membership test and a label fetch returning a node's Lin or Lout rows
   as a Label_codec stream.  The store's own queries fetch by range scan;
   the serving layer plugs in a cached fetch and a frozen node set. *)

type dir = Lin | Lout

let fetch t dir v =
  (* the range scan visits rows ascending by (center, dist): exactly the
     encoder's input order, so encoding streams with no staging *)
  let e = Codec.Enc.create () in
  let add ~center ~dist = Codec.Enc.row e ~center ~dist in
  (match dir with Lin -> iter_lin t v add | Lout -> iter_lout t v add);
  Codec.Enc.finish e

type source = { store : t; mem : int -> bool; fetch : dir -> int -> Codec.t }

let source t = { store = t; mem = mem_node t; fetch = fetch t }

(* The paper's join on LOUT.OUTID = LIN.INID is a merge of the two
   streams; the two compensating probes cover the implicit self-entries
   (center v in Lout(u), center u in Lin(v)). *)
let reach src u v =
  if u = v then src.mem u
  else if not (src.mem u && src.mem v) then false
  else begin
    let lout = src.fetch Lout u and lin = src.fetch Lin v in
    Codec.mem lout v || Codec.mem lin u || Codec.intersects lout lin
  end

let dist src u v =
  if not (src.mem u && src.mem v) then None
  else if u = v then Some 0
  else begin
    let lout = src.fetch Lout u and lin = src.fetch Lin v in
    let best = ref (-1) in
    let note d = if d >= 0 && (!best < 0 || d < !best) then best := d in
    note (Codec.find_min_dist lout v);
    note (Codec.find_min_dist lin u);
    note (Codec.merge_min lout lin);
    if !best < 0 then None else Some !best
  end

(* the node itself, each center of its labels, and every node naming one
   of those centers on the other side (a backward-index scan per center;
   these enumerate result sets, so the scans go uncached) *)
let reach_set src ~dir ~scan u =
  let acc = Ihs.create () in
  if src.mem u then begin
    Ihs.add acc u;
    let via_center w =
      Ihs.add acc w;
      scan src.store w (fun ~node ~dist:_ -> Ihs.add acc node)
    in
    via_center u;
    Codec.iter_centers (src.fetch dir u) via_center
  end;
  acc

let desc src u = reach_set src ~dir:Lout ~scan:iter_in_by_center u

let anc src v = reach_set src ~dir:Lin ~scan:iter_out_by_center v

let connected t u v = reach (source t) u v

let min_distance t u v = dist (source t) u v

let descendants t u = desc (source t) u

let ancestors t v = anc (source t) v

let n_entries t = Table.length t.lin + Table.length t.lout

let stored_integers t =
  let per_entry = if t.with_dist then 6 else 4 in
  per_entry * n_entries t

let n_nodes t = Btree.length t.nodes
