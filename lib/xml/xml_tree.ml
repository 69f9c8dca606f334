type t = {
  tag : string;
  attrs : (string * string) list;
  children : child list;
}

and child = Element of t | Text of string

let attr t name = List.assoc_opt name t.attrs

let escape_text s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let escape_attr s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_string ?(indent = false) t =
  let buf = Buffer.create 256 in
  let rec go level t =
    let pad = if indent then String.make (2 * level) ' ' else "" in
    Buffer.add_string buf pad;
    Buffer.add_char buf '<';
    Buffer.add_string buf t.tag;
    List.iter
      (fun (k, v) ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf k;
        Buffer.add_string buf "=\"";
        Buffer.add_string buf (escape_attr v);
        Buffer.add_char buf '"')
      t.attrs;
    if t.children = [] then Buffer.add_string buf "/>"
    else begin
      Buffer.add_char buf '>';
      let only_text =
        List.for_all (function Text _ -> true | Element _ -> false) t.children
      in
      if indent && not only_text then Buffer.add_char buf '\n';
      List.iter
        (function
          | Text s -> Buffer.add_string buf (escape_text s)
          | Element e ->
            go (level + 1) e;
            if indent then Buffer.add_char buf '\n')
        t.children;
      if indent && not only_text then Buffer.add_string buf pad;
      Buffer.add_string buf "</";
      Buffer.add_string buf t.tag;
      Buffer.add_char buf '>'
    end
  in
  go 0 t;
  Buffer.contents buf
