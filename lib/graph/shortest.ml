type t = (int, (int, int) Hashtbl.t) Hashtbl.t

let all_pairs g =
  let t = Hashtbl.create (Digraph.n_nodes g) in
  Digraph.iter_nodes g (fun v -> Hashtbl.replace t v (Traversal.bfs_distances g v));
  t

let dist t u v =
  match Hashtbl.find_opt t u with
  | None -> None
  | Some d -> Hashtbl.find_opt d v
