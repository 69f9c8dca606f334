module Splitmix = Hopi_util.Splitmix
module Collection = Hopi_collection.Collection

type op =
  | Delete_doc of string
  | Reinsert_doc of string * string
  | Add_link of string * string

let pick_docs ~seed ~n c =
  let rng = Splitmix.create seed in
  let docs = Array.of_list (List.sort compare (Collection.doc_ids c)) in
  Splitmix.shuffle rng docs;
  Array.to_list (Array.sub docs 0 (min n (Array.length docs)))

let churn_trace ~seed ~n_ops regen c =
  let rng = Splitmix.create (seed + 1) in
  let victims = pick_docs ~seed ~n:(max 1 (n_ops / 2)) c in
  let doc_index name =
    (* names are "<prefix><i>.xml" *)
    let base = Filename.remove_extension name in
    let digits = String.to_seq base |> Seq.filter (fun ch -> ch >= '0' && ch <= '9') in
    int_of_string (String.of_seq digits)
  in
  List.concat_map
    (fun did ->
      let name = Collection.doc_name c did in
      let ops = [ Delete_doc name; Reinsert_doc (name, regen (doc_index name)) ] in
      if Splitmix.float rng 1.0 < 0.2 then
        ops @ [ Add_link (name, Collection.doc_name c (Splitmix.pick rng (Array.of_list (List.sort compare (Collection.doc_ids c))))) ]
      else ops)
    victims
