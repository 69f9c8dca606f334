module Smap = Map.Make (String)

type t = float Smap.t Smap.t

let empty = Smap.empty

let add t a b sim =
  let ins x y t =
    let m = Option.value ~default:Smap.empty (Smap.find_opt x t) in
    Smap.add x (Smap.add y sim m) t
  in
  ins a b (ins b a t)

let create pairs = List.fold_left (fun t (a, b, s) -> add t a b s) empty pairs

let expand t tag ~threshold =
  let related =
    match Smap.find_opt tag t with
    | None -> []
    | Some m -> Smap.fold (fun b s acc -> if s >= threshold then (b, s) :: acc else acc) m []
  in
  (tag, 1.0) :: List.sort (fun (_, a) (_, b) -> compare b a) related

let publications =
  create
    [
      ("book", "monography", 0.9);
      ("book", "publication", 0.7);
      ("article", "publication", 0.8);
      ("article", "paper", 0.9);
      ("inproceedings", "article", 0.7);
      ("inproceedings", "paper", 0.8);
      ("author", "writer", 0.9);
      ("author", "creator", 0.7);
      ("author", "editor", 0.5);
      ("title", "ti", 0.8);
      ("cite", "ref", 0.8);
      ("booktitle", "venue", 0.8);
      ("year", "date", 0.7);
    ]
