type t = { fwd : Btree.t; bwd : Btree.t }

let create pager = { fwd = Btree.create pager; bwd = Btree.create pager }

let of_trees ~fwd ~bwd = { fwd; bwd }

let trees t = (t.fwd, t.bwd)

let insert t ~id ~label ~dist =
  let added = Btree.insert t.fwd (id, label, dist) in
  if added then ignore (Btree.insert t.bwd (label, id, dist));
  added

let delete t ~id ~label ~dist =
  let removed = Btree.delete t.fwd (id, label, dist) in
  if removed then ignore (Btree.delete t.bwd (label, id, dist));
  removed

let delete_all_of_id t id =
  let rows = ref [] in
  Btree.iter_prefix1 t.fwd id (fun k -> rows := k :: !rows);
  List.iter
    (fun (id, label, dist) -> ignore (delete t ~id ~label ~dist))
    !rows;
  List.length !rows

let delete_all_of_label t label =
  let rows = ref [] in
  Btree.iter_prefix1 t.bwd label (fun k -> rows := k :: !rows);
  List.iter
    (fun (label, id, dist) -> ignore (delete t ~id ~label ~dist))
    !rows;
  List.length !rows

let mem t ~id ~label =
  let found = ref false in
  Btree.iter_prefix2 t.fwd id label (fun _ -> found := true);
  !found

let iter_by_id t id f =
  Btree.iter_prefix1 t.fwd id (fun (_, label, dist) -> f ~label ~dist)

let iter_by_label t label f =
  Btree.iter_prefix1 t.bwd label (fun (_, id, dist) -> f ~id ~dist)

let length t = Btree.length t.fwd
