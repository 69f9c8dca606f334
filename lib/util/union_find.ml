type t = {
  parent : (int, int) Hashtbl.t;
  size : (int, int) Hashtbl.t;
}

let create () = { parent = Hashtbl.create 64; size = Hashtbl.create 64 }

let rec find t x =
  match Hashtbl.find_opt t.parent x with
  | None ->
    Hashtbl.replace t.parent x x;
    Hashtbl.replace t.size x 1;
    x
  | Some p when p = x -> x
  | Some p ->
    let root = find t p in
    Hashtbl.replace t.parent x root;
    root

let union t a b =
  let ra = find t a and rb = find t b in
  if ra <> rb then begin
    let sa = Hashtbl.find t.size ra and sb = Hashtbl.find t.size rb in
    let big, small = if sa >= sb then (ra, rb) else (rb, ra) in
    Hashtbl.replace t.parent small big;
    Hashtbl.replace t.size big (sa + sb)
  end

let classes t =
  let acc = Hashtbl.create 16 in
  Hashtbl.iter
    (fun x _ ->
      let r = find t x in
      let l = Option.value ~default:[] (Hashtbl.find_opt acc r) in
      Hashtbl.replace acc r (x :: l))
    t.parent;
  acc
