module Ihs = Hopi_util.Int_hashset
module Cover = Hopi_twohop.Cover
module Dist_cover = Hopi_twohop.Dist_cover
module Codec = Hopi_twohop.Label_codec

type t = {
  pgr : Pager.t;
  mutable lin : Table.t;
  mutable lout : Table.t;
  mutable nodes : Btree.t;  (* registry: (id, 0, 0) *)
  mutable with_dist : bool;
}

let create pgr =
  (* page 0 is the catalog *)
  let catalog_page = Pager.alloc pgr in
  assert (catalog_page = 0);
  { pgr; lin = Table.create pgr; lout = Table.create pgr; nodes = Btree.create pgr;
    with_dist = false }

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

let add_node t v = ignore (Btree.insert t.nodes (v, 0, 0))

let mem_node t v = Btree.mem t.nodes (v, 0, 0)

let with_dist t = t.with_dist

let iter_nodes t f = Btree.iter_all t.nodes (fun (v, _, _) -> f v)

let iter_lin t v f = Table.iter_by_id t.lin v (fun ~label ~dist -> f ~center:label ~dist)

let iter_lout t u f = Table.iter_by_id t.lout u (fun ~label ~dist -> f ~center:label ~dist)

let iter_in_by_center t w f = Table.iter_by_label t.lin w (fun ~id ~dist -> f ~node:id ~dist)

let iter_out_by_center t w f = Table.iter_by_label t.lout w (fun ~id ~dist -> f ~node:id ~dist)

let insert_in t ~node ~center ~dist =
  if node <> center then begin
    add_node t node;
    ignore (Table.insert t.lin ~id:node ~label:center ~dist);
    if dist > 0 then t.with_dist <- true
  end

let insert_out t ~node ~center ~dist =
  if node <> center then begin
    add_node t node;
    ignore (Table.insert t.lout ~id:node ~label:center ~dist);
    if dist > 0 then t.with_dist <- true
  end

let load_cover t cover =
  Cover.iter_nodes cover (fun v ->
      add_node t v;
      Cover.iter_lin cover v (fun w -> insert_in t ~node:v ~center:w ~dist:0);
      Cover.iter_lout cover v (fun w -> insert_out t ~node:v ~center:w ~dist:0))

let load_dist_cover t cover =
  Dist_cover.iter_nodes cover (fun v ->
      add_node t v;
      Dist_cover.iter_lin cover v (fun w d -> insert_in t ~node:v ~center:w ~dist:d);
      Dist_cover.iter_lout cover v (fun w d -> insert_out t ~node:v ~center:w ~dist:d))

(* {1 Bulk loading}

   Sort all rows of a table up front, then hand the sorted streams to
   {!Btree.bulk_load} — every page is written once, in key order, instead
   of the per-entry root-to-leaf descents (and the eviction storm) of
   {!load_cover}.  Plain covers pack each (node, center) row into one
   OCaml int so the sorts are cheap monomorphic int sorts; the same array
   is repacked in place for the backward index.  Trees are built in the
   catalog's slot order so the page layout is deterministic. *)

let int_cmp (x : int) y = compare x y

let pack_bits = 31  (* components are i32-bounded; covers hold ids >= 0 *)

let pack_mask = (1 lsl pack_bits) - 1

let pack a b =
  if a < 0 || a > pack_mask || b < 0 || b > pack_mask then
    invalid_arg (Printf.sprintf "Cover_store: id out of range (%d, %d)" a b);
  (a lsl pack_bits) lor b

let require_fresh t =
  let lin_fwd, lin_bwd = Table.trees t.lin in
  let lout_fwd, lout_bwd = Table.trees t.lout in
  let roots = [ lin_fwd; lin_bwd; lout_fwd; lout_bwd; t.nodes ] in
  if List.exists (fun tr -> Btree.length tr > 0) roots then
    invalid_arg "Cover_store: bulk load requires a freshly created store";
  (* recycle the empty roots [create] allocated: the bulk loader writes
     whole new trees and the pager reuses these pages first *)
  List.iter (fun tr -> Pager.free t.pgr (Btree.root tr)) roots

let tree_of_packed pgr a =
  let i = ref 0 in
  Btree.bulk_load pgr ~next:(fun () ->
      if !i >= Array.length a then None
      else begin
        let x = a.(!i) in
        incr i;
        Some (x lsr pack_bits, x land pack_mask, 0)
      end)

(* swap the two packed halves in place (fwd rows -> bwd rows) *)
let swap_repack a =
  Array.iteri (fun j x -> a.(j) <- ((x land pack_mask) lsl pack_bits) lor (x lsr pack_bits)) a

let packed_rows cover nodes ~cardinal ~iter =
  let total = Array.fold_left (fun acc v -> acc + cardinal cover v) 0 nodes in
  let a = Array.make total 0 in
  let i = ref 0 in
  Array.iter
    (fun v ->
      iter cover v (fun w ->
          a.(!i) <- pack v w;
          incr i))
    nodes;
  Array.sort int_cmp a;
  a

let sorted_nodes n iter =
  let a = Array.make n 0 in
  let i = ref 0 in
  iter (fun v ->
      a.(!i) <- v;
      incr i);
  Array.sort int_cmp a;
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

let bulk_table pgr rows =
  let fwd = tree_of_packed pgr rows in
  swap_repack rows;
  Array.sort int_cmp rows;
  let bwd = tree_of_packed pgr rows in
  Table.of_trees ~fwd ~bwd

let bulk_load_cover t cover =
  require_fresh t;
  let nodes = sorted_nodes (Cover.n_nodes cover) (Cover.iter_nodes cover) in
  let lin =
    packed_rows cover nodes ~cardinal:Cover.lin_cardinal ~iter:Cover.iter_lin
  in
  t.lin <- bulk_table t.pgr lin;
  let lout =
    packed_rows cover nodes ~cardinal:Cover.lout_cardinal ~iter:Cover.iter_lout
  in
  t.lout <- bulk_table t.pgr lout;
  t.nodes <- tree_of_nodes t.pgr nodes

let bulk_load_dist_cover t cover =
  require_fresh t;
  let nodes = sorted_nodes (Dist_cover.n_nodes cover) (Dist_cover.iter_nodes cover) in
  let key_cmp (a1, b1, c1) (a2, b2, c2) =
    let c = int_cmp a1 a2 in
    if c <> 0 then c
    else
      let c = int_cmp b1 b2 in
      if c <> 0 then c else int_cmp c1 c2
  in
  let rows_of iter =
    let buf = Hopi_util.Dyn_array.create () in
    Array.iter
      (fun v -> iter cover v (fun w d -> Hopi_util.Dyn_array.push buf (v, w, d)))
      nodes;
    let a =
      Array.init (Hopi_util.Dyn_array.length buf) (Hopi_util.Dyn_array.get buf)
    in
    Array.sort key_cmp a;
    a
  in
  let tree_of rows =
    let i = ref 0 in
    Btree.bulk_load t.pgr ~next:(fun () ->
        if !i >= Array.length rows then None
        else begin
          let k = rows.(!i) in
          incr i;
          Some k
        end)
  in
  let table_of rows =
    let fwd = tree_of rows in
    let bwd_rows = Array.map (fun (v, w, d) -> (w, v, d)) rows in
    Array.sort key_cmp bwd_rows;
    let bwd = tree_of bwd_rows in
    Table.of_trees ~fwd ~bwd
  in
  let any_dist rows = Array.exists (fun (_, _, d) -> d > 0) rows in
  let lin = rows_of Dist_cover.iter_lin in
  t.lin <- table_of lin;
  if any_dist lin then t.with_dist <- true;
  let lout = rows_of Dist_cover.iter_lout in
  t.lout <- table_of lout;
  if any_dist lout then t.with_dist <- true;
  t.nodes <- tree_of_nodes t.pgr nodes

let remove_node t v =
  ignore (Table.delete_all_of_id t.lin v);
  ignore (Table.delete_all_of_id t.lout v);
  ignore (Btree.delete t.nodes (v, 0, 0))

let remove_label t w =
  ignore (Table.delete_all_of_label t.lin w);
  ignore (Table.delete_all_of_label t.lout w)

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
