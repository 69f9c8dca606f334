module Int_set = Hopi_util.Int_set
module Bitset = Hopi_util.Bitset

type t = {
  succs : (int, Int_set.t) Hashtbl.t;  (* node -> descendants incl self *)
  preds : (int, Int_set.t) Hashtbl.t;  (* node -> ancestors incl self *)
  n_connections : int;
}

(* Reachability over the condensation: comp id -> bitset of reachable comp
   ids (including itself).  Components are processed in reverse topological
   order so successors are finished first. *)
let comp_reach (cond : Condensation.t) =
  let n = cond.scc.Scc.count in
  let reach = Array.make (max n 1) (Bitset.create 0) in
  let order =
    match Traversal.topological_order cond.dag with
    | Some o -> o
    | None -> assert false (* a condensation is a DAG *)
  in
  List.iter
    (fun c ->
      let b = Bitset.create n in
      Bitset.set b c;
      Digraph.iter_succ cond.dag c (fun c' ->
          ignore (Bitset.union_into ~dst:b reach.(c')));
      reach.(c) <- b)
    (List.rev order);
  reach

let count_connections g =
  let cond = Condensation.compute g in
  let reach = comp_reach cond in
  let sizes = Array.map Array.length cond.scc.Scc.members in
  let total = ref 0 in
  for c = 0 to cond.scc.Scc.count - 1 do
    let reachable_nodes = Bitset.fold (fun c' acc -> acc + sizes.(c')) reach.(c) 0 in
    total := !total + (sizes.(c) * reachable_nodes)
  done;
  !total

let build_tables g cond reach =
  let n = cond.Condensation.scc.Scc.count in
  let members = cond.Condensation.scc.Scc.members in
  (* Per component: sorted array of all reachable nodes. *)
  let comp_succ_nodes = Array.make (max n 1) [||] in
  for c = 0 to n - 1 do
    let total = Bitset.fold (fun c' acc -> acc + Array.length members.(c')) reach.(c) 0 in
    let a = Array.make total 0 in
    let i = ref 0 in
    Bitset.iter
      (fun c' ->
        Array.iter
          (fun v ->
            a.(!i) <- v;
            incr i)
          members.(c'))
      reach.(c);
    Array.sort compare a;
    comp_succ_nodes.(c) <- a
  done;
  let succs = Hashtbl.create (Digraph.n_nodes g) in
  let preds = Hashtbl.create (Digraph.n_nodes g) in
  let n_connections = ref 0 in
  Digraph.iter_nodes g (fun v ->
      let c = Scc.component_of cond.Condensation.scc v in
      let s = Int_set.of_sorted_array_unsafe comp_succ_nodes.(c) in
      Hashtbl.replace succs v s;
      n_connections := !n_connections + Int_set.cardinal s);
  (* Invert for ancestors. *)
  let pred_acc = Hashtbl.create (Digraph.n_nodes g) in
  Digraph.iter_nodes g (fun v -> Hashtbl.replace pred_acc v (ref []));
  Hashtbl.iter
    (fun u s ->
      Int_set.iter
        (fun v ->
          let r = Hashtbl.find pred_acc v in
          r := u :: !r)
        s)
    succs;
  Hashtbl.iter (fun v r -> Hashtbl.replace preds v (Int_set.of_list !r)) pred_acc;
  { succs; preds; n_connections = !n_connections }

let compute g =
  let cond = Condensation.compute g in
  let reach = comp_reach cond in
  build_tables g cond reach

let compute_bounded g ~max_connections =
  if count_connections g > max_connections then None else Some (compute g)

let n_connections t = t.n_connections

let n_nodes t = Hashtbl.length t.succs

let succs t v =
  match Hashtbl.find_opt t.succs v with
  | Some s -> s
  | None -> Int_set.empty

let preds t v =
  match Hashtbl.find_opt t.preds v with
  | Some s -> s
  | None -> Int_set.empty

let mem t u v = Int_set.mem v (succs t u)

let iter_nodes t f = Hashtbl.iter (fun v _ -> f v) t.succs

let iter_pairs t f =
  Hashtbl.iter (fun u s -> Int_set.iter (fun v -> f u v) s) t.succs

let nodes t = Hashtbl.fold (fun v _ acc -> v :: acc) t.succs []
