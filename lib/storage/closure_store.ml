module Ihs = Hopi_util.Int_hashset

type t = { pgr : Pager.t; table : Table.t }

let of_closure pgr clo =
  Catalog.reserve "Closure_store.of_closure" pgr;
  let pairs = Array.make (Hopi_graph.Closure.n_connections clo) 0 in
  let i = ref 0 in
  Hopi_graph.Closure.iter_pairs clo (fun u v ->
      pairs.(!i) <- Table.pack ~id:u ~label:v;
      incr i);
  { pgr; table = Table.of_pairs pgr pairs }

let save t =
  let entry tree = { Catalog.root = Btree.root tree; length = Btree.length tree } in
  let fwd, bwd = Table.trees t.table in
  Catalog.write t.pgr
    (Catalog.Closure { fwd = entry fwd; bwd = entry bwd });
  Pager.commit t.pgr

let pager t = t.pgr

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
