module Ihs = Hopi_util.Int_hashset

type adj = { out : Ihs.t; inc : Ihs.t }

type t = { nodes : (int, adj) Hashtbl.t; mutable n_edges : int }

let create ?(initial = 16) () = { nodes = Hashtbl.create initial; n_edges = 0 }

let adj_of t v =
  match Hashtbl.find_opt t.nodes v with
  | Some a -> a
  | None ->
    let a = { out = Ihs.create ~initial:4 (); inc = Ihs.create ~initial:4 () } in
    Hashtbl.add t.nodes v a;
    a

let add_node t v = ignore (adj_of t v)

let mem_node t v = Hashtbl.mem t.nodes v

let mem_edge t u v =
  match Hashtbl.find_opt t.nodes u with
  | None -> false
  | Some a -> Ihs.mem a.out v

let add_edge t u v =
  let au = adj_of t u in
  if not (Ihs.mem au.out v) then begin
    let av = adj_of t v in
    Ihs.add au.out v;
    Ihs.add av.inc u;
    t.n_edges <- t.n_edges + 1
  end

let remove_edge t u v =
  match Hashtbl.find_opt t.nodes u with
  | None -> ()
  | Some au ->
    if Ihs.mem au.out v then begin
      Ihs.remove au.out v;
      (match Hashtbl.find_opt t.nodes v with
       | Some av -> Ihs.remove av.inc u
       | None -> ());
      t.n_edges <- t.n_edges - 1
    end

let remove_node t v =
  match Hashtbl.find_opt t.nodes v with
  | None -> ()
  | Some a ->
    Ihs.iter (fun w -> remove_edge t v w) (Ihs.copy a.out);
    Ihs.iter (fun u -> remove_edge t u v) (Ihs.copy a.inc);
    Hashtbl.remove t.nodes v

let n_nodes t = Hashtbl.length t.nodes

let n_edges t = t.n_edges

let iter_succ t v f =
  match Hashtbl.find_opt t.nodes v with
  | None -> ()
  | Some a -> Ihs.iter f a.out

let iter_pred t v f =
  match Hashtbl.find_opt t.nodes v with
  | None -> ()
  | Some a -> Ihs.iter f a.inc

let iter_nodes t f = Hashtbl.iter (fun v _ -> f v) t.nodes

let iter_edges t f =
  Hashtbl.iter (fun u a -> Ihs.iter (fun v -> f u v) a.out) t.nodes

module Dense = Hashtbl.Make (Int)

(* three passes over [t.nodes] visit the nodes in one order: number them,
   count their neighbours, fill the rows *)
let csr t ~pred =
  let n = n_nodes t in
  let ids = Array.make n 0 and dense = Dense.create n in
  let nbrs a = if pred then a.inc else a.out in
  let x = ref 0 in
  Hashtbl.iter (fun v _ -> ids.(!x) <- v; Dense.replace dense v !x; incr x) t.nodes;
  let off = Array.make (n + 1) 0 in
  x := 0;
  Hashtbl.iter (fun _ a -> off.(!x + 1) <- off.(!x) + Ihs.cardinal (nbrs a); incr x) t.nodes;
  let adj = Array.make off.(n) 0 and e = ref 0 in
  Hashtbl.iter (fun _ a -> Ihs.iter (fun w -> adj.(!e) <- Dense.find dense w; incr e) (nbrs a))
    t.nodes;
  (ids, off, adj)

let nodes t =
  let acc = ref [] in
  iter_nodes t (fun v -> acc := v :: !acc);
  !acc

let induced_subgraph t keep =
  let g = create ~initial:(Ihs.cardinal keep) () in
  Ihs.iter (fun v -> if mem_node t v then add_node g v) keep;
  Ihs.iter
    (fun u -> iter_succ t u (fun v -> if Ihs.mem keep v then add_edge g u v))
    keep;
  g
