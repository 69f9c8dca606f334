type axis = Child | Descendant

type test = Tag of string | Similar of string | Any

type step = { axis : axis; test : test; predicates : pred list }

and pred = Path of t | Contains of string

and t = step list

let is_tag_char ch =
  (ch >= 'a' && ch <= 'z')
  || (ch >= 'A' && ch <= 'Z')
  || (ch >= '0' && ch <= '9')
  || ch = '_' || ch = '-' || ch = '.' || ch = ':'

let rec parse s =
  let n = String.length s in
  (* parse the [expr]... predicates after a test; returns (preds, next) *)
  let rec predicates acc i =
    if i < n && s.[i] = '[' then begin
      (* find the matching close bracket (brackets nest) *)
      let depth = ref 1 and j = ref (i + 1) in
      while !depth > 0 && !j < n do
        (match s.[!j] with
         | '[' -> incr depth
         | ']' -> decr depth
         | _ -> ());
        if !depth > 0 then incr j
      done;
      if !depth > 0 then Error "unterminated '['"
      else begin
        let inner = String.sub s (i + 1) (!j - i - 1) in
        let li = String.length inner in
        if li >= 2 && inner.[0] = '\"' && inner.[li - 1] = '\"' then
          predicates (Contains (String.sub inner 1 (li - 2)) :: acc) (!j + 1)
        else
          match parse inner with
          | Error msg -> Error (Printf.sprintf "in predicate %S: %s" inner msg)
          | Ok expr -> predicates (Path expr :: acc) (!j + 1)
      end
    end
    else Ok (List.rev acc, i)
  in
  let rec steps acc i =
    if i >= n then Ok (List.rev acc)
    else if s.[i] <> '/' then Error (Printf.sprintf "expected '/' at position %d" i)
    else begin
      let axis, j =
        if i + 1 < n && s.[i + 1] = '/' then (Descendant, i + 2) else (Child, i + 1)
      in
      if j >= n then Error "trailing slash"
      else begin
        let tilde = s.[j] = '~' in
        let j = if tilde then j + 1 else j in
        let finish test k =
          match predicates [] k with
          | Error msg -> Error msg
          | Ok (preds, k') -> steps ({ axis; test; predicates = preds } :: acc) k'
        in
        if j < n && s.[j] = '*' then
          if tilde then Error "'~*' is not a valid test" else finish Any (j + 1)
        else begin
          let k = ref j in
          while !k < n && is_tag_char s.[!k] do
            incr k
          done;
          if !k = j then Error (Printf.sprintf "empty step at position %d" j)
          else begin
            let tag = String.sub s j (!k - j) in
            finish (if tilde then Similar tag else Tag tag) !k
          end
        end
      end
    end
  in
  if n = 0 then Error "empty expression" else steps [] 0

let parse_exn s =
  match parse s with
  | Ok t -> t
  | Error msg -> invalid_arg ("Path_expr.parse: " ^ msg)
