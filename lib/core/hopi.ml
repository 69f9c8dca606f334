module Cover = Hopi_twohop.Cover
module Collection = Hopi_collection.Collection
module Ihs = Hopi_util.Int_hashset

type t = {
  collection : Collection.t;
  config : Config.t;
  mutable cover : Cover.t;
  mutable last_build : Build.result;
  mutable dist : Cover.t option;
  mutable text : Hopi_collection.Text_index.t option;
}

let create ?(config = Config.default) collection =
  let result = Build.build config collection in
  { collection; config; cover = result.Build.cover; last_build = result; dist = None;
    text = None }

let collection t = t.collection

let cover t = t.cover

let last_build t = t.last_build

(* drops the cached distance and text indexes; the next
   [distance_index]/[text_index] call rebuilds them.  Element and link
   insertions change no text and drop only the distance index. *)
let invalidate t =
  t.dist <- None;
  t.text <- None

(* {1 Queries} *)

let connected t u v = Cover.connected t.cover u v

let descendants t u = Cover.descendants t.cover u

let filter_tag t tag s =
  Ihs.fold
    (fun e acc -> if Collection.tag_of t.collection e = tag then e :: acc else acc)
    s []

let descendants_with_tag t u tag = filter_tag t tag (descendants t u)

(* {1 Maintenance} *)

let insert_document t ~name root =
  invalidate t;
  Maintenance.insert_document t.collection t.cover ~name root

let insert_document_xml t ~name src =
  match Hopi_xml.Xml_parser.parse_string src with
  | Error e -> Error e
  | Ok root -> Ok (insert_document t ~name root)

let remove_document t did =
  invalidate t;
  Maintenance.delete_document t.collection t.cover did

let modify_document_diff t did root =
  invalidate t;
  Maintenance.modify_document_diff t.collection t.cover did root

let remove_subtree t eid =
  invalidate t;
  Maintenance.delete_subtree t.collection t.cover eid

let insert_element t ~doc ~parent ~tag =
  t.dist <- None;
  Maintenance.insert_element t.collection t.cover ~doc ~parent ~tag

let insert_link t u v =
  t.dist <- None;
  Maintenance.insert_link t.collection t.cover u v

let remove_link t u v =
  invalidate t;
  Maintenance.delete_link t.collection t.cover u v

let rebuild t =
  invalidate t;
  let result = Build.build t.config t.collection in
  t.cover <- result.Build.cover;
  t.last_build <- result;
  result

(* {1 Storage and statistics} *)

let size t = Cover.size t.cover

let to_store t pager = Hopi_storage.Cover_store.of_cover pager t.cover

let distance_index t =
  match t.dist with
  | Some d -> d
  | None ->
    let d, _ = Hopi_twohop.Dist_builder.build (Collection.element_graph t.collection) in
    t.dist <- Some d;
    d

let text_index t =
  match t.text with
  | Some ti -> ti
  | None ->
    let ti = Hopi_collection.Text_index.build t.collection in
    t.text <- Some ti;
    ti

let self_check t =
  Hopi_twohop.Verify.cover_vs_graph t.cover (Collection.element_graph t.collection) = []
