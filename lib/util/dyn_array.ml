type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let length t = t.len

let check t i =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Dyn_array: index %d out of [0,%d)" i t.len)

let get t i = check t i; t.data.(i)

let set t i x = check t i; t.data.(i) <- x

let grow t x =
  let cap = Array.length t.data in
  let ncap = if cap = 0 then 8 else cap * 2 in
  let nd = Array.make ncap x in
  Array.blit t.data 0 nd 0 t.len;
  t.data <- nd

let push t x =
  if t.len = Array.length t.data then grow t x;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Dyn_array.pop: empty";
  t.len <- t.len - 1;
  t.data.(t.len)

let to_array t = Array.sub t.data 0 t.len

