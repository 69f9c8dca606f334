type target = { doc : string option; fragment : string }

let parse_href s =
  match String.index_opt s '#' with
  | None -> { doc = (if s = "" then None else Some s); fragment = "" }
  | Some i ->
    let doc = String.sub s 0 i in
    let fragment = String.sub s (i + 1) (String.length s - i - 1) in
    { doc = (if doc = "" then None else Some doc); fragment }

let split_ws s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char '\n')
  |> List.filter (fun x -> x <> "")

let targets_of_element (e : Xml_tree.t) =
  List.concat_map
    (fun (name, value) ->
      match name with
      | "xlink:href" | "href" -> [ parse_href value ]
      | "idref" -> [ { doc = None; fragment = value } ]
      | "idrefs" -> List.map (fun f -> { doc = None; fragment = f }) (split_ws value)
      | _ -> [])
    e.Xml_tree.attrs
