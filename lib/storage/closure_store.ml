module Ihs = Hopi_util.Int_hashset

type t = { pgr : Pager.t; table : Table.t }

let create pgr =
  (* page 0 is the catalog *)
  let catalog_page = Pager.alloc pgr in
  assert (catalog_page = 0);
  { pgr; table = Table.create pgr }

let save t =
  let entry tree = { Catalog.root = Btree.root tree; length = Btree.length tree } in
  let fwd, bwd = Table.trees t.table in
  Catalog.write t.pgr
    { Catalog.kind = Catalog.Closure; with_dist = false; trees = [| entry fwd; entry bwd |] };
  Pager.commit t.pgr

let pager t = t.pgr

let load t clo =
  Hopi_graph.Closure.iter_pairs clo (fun u v ->
      ignore (Table.insert t.table ~id:u ~label:v ~dist:0))

let connected t u v = Table.mem t.table ~id:u ~label:v

let descendants t u =
  let acc = Ihs.create () in
  Table.iter_by_id t.table u (fun ~label ~dist:_ -> Ihs.add acc label);
  acc

let ancestors t v =
  let acc = Ihs.create () in
  Table.iter_by_label t.table v (fun ~id ~dist:_ -> Ihs.add acc id);
  acc

let n_connections t = Table.length t.table

let stored_integers t = 4 * Table.length t.table
