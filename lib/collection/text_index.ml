module Ihs = Hopi_util.Int_hashset

type t = { postings : (string, Ihs.t) Hashtbl.t }

let tokenize s =
  let terms = ref [] in
  let buf = Buffer.create 8 in
  let flush () =
    if Buffer.length buf > 0 then begin
      terms := Buffer.contents buf :: !terms;
      Buffer.clear buf
    end
  in
  String.iter
    (fun ch ->
      match ch with
      | 'a' .. 'z' | '0' .. '9' -> Buffer.add_char buf ch
      | 'A' .. 'Z' -> Buffer.add_char buf (Char.lowercase_ascii ch)
      | _ -> flush ())
    s;
  flush ();
  List.rev !terms

let build c =
  let postings = Hashtbl.create 256 in
  Collection.iter_elements c (fun e ->
      List.iter
        (fun term ->
          let bucket =
            match Hashtbl.find_opt postings term with
            | Some b -> b
            | None ->
              let b = Ihs.create ~initial:4 () in
              Hashtbl.add postings term b;
              b
          in
          Ihs.add bucket e)
        (tokenize (Collection.text_of c e)));
  { postings }

let subtree_contains t c e term =
  match Hashtbl.find_opt t.postings (String.lowercase_ascii term) with
  | None -> false
  | Some b ->
    let found = ref false in
    (try
       Ihs.iter
         (fun d ->
           if Skeleton.is_tree_ancestor c e d then begin
             found := true;
             raise Exit
           end)
         b
     with Exit -> ());
    !found
