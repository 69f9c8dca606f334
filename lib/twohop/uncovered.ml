module Closure = Hopi_graph.Closure
module Bitrow = Hopi_util.Bitrow

let bits = Bitrow.bits

(* [rows.(u)] covers the words of [u]'s closure row from
   [Closure.reach_lo clo u]; a row of [of_pairs] stays empty until a pair
   from [u] is added. *)
type t = {
  clo : Closure.t;
  rows : int array array;
  counts : int array;
  mutable count : int;
}

let lo t u = Closure.reach_lo t.clo u

let of_closure clo =
  let n = Closure.n_nodes clo in
  let rows =
    Array.init n (fun u ->
        let r = Array.copy (Closure.reach_row clo u) in
        let i = (u / bits) - Closure.reach_lo clo u in
        r.(i) <- r.(i) land lnot (1 lsl (u mod bits));
        r)
  in
  let counts = Array.map Bitrow.count rows in
  { clo; rows; counts; count = Array.fold_left ( + ) 0 counts }

let of_pairs clo pairs =
  let n = Closure.n_nodes clo in
  let t = { clo; rows = Array.make n [||]; counts = Array.make n 0; count = 0 } in
  List.iter
    (fun (u, v) ->
      let l = lo t u in
      if u <> v && Bitrow.mem ~lo:l (Closure.reach_row clo u) v then begin
        if Array.length t.rows.(u) = 0 then
          t.rows.(u) <- Array.make (Array.length (Closure.reach_row clo u)) 0;
        let r = t.rows.(u) and i = (v / bits) - l and b = 1 lsl (v mod bits) in
        if r.(i) land b = 0 then begin
          r.(i) <- r.(i) lor b;
          t.counts.(u) <- t.counts.(u) + 1;
          t.count <- t.count + 1
        end
      end)
    pairs;
  t

let count t = t.count

let is_empty t = t.count = 0

let mem t u v = Bitrow.mem ~lo:(lo t u) t.rows.(u) v

let take t u n =
  t.counts.(u) <- t.counts.(u) - n;
  t.count <- t.count - n

let remove t u v =
  if mem t u v then begin
    let i = (v / bits) - lo t u in
    t.rows.(u).(i) <- t.rows.(u).(i) land lnot (1 lsl (v mod bits));
    take t u 1
  end

let iter_live_ins t w f = Closure.iter_ancestors t.clo w (fun u -> if t.counts.(u) > 0 then f u)

(* the words [u]'s row shares with the row [(lo, r)]: [k] runs over
   absolute word numbers *)
let overlap t u ~lo:l r f =
  let lu = lo t u and ru = t.rows.(u) in
  for k = max lu l to min (lu + Array.length ru) (l + Array.length r) - 1 do
    f ru (k - lu) r.(k - l) k
  done

let iter_into t u ~lo r f =
  if t.counts.(u) > 0 then
    overlap t u ~lo r (fun ru i w k -> Bitrow.iter_word (k * bits) (ru.(i) land w) f)

let cover ?touched t u ~lo r =
  let removed = ref 0 in
  if t.counts.(u) > 0 then
    overlap t u ~lo r (fun ru i w k ->
        let hit = ru.(i) land w in
        if hit <> 0 then begin
          ru.(i) <- ru.(i) lxor hit;
          removed := !removed + Bitrow.popcount hit;
          match touched with
          | Some m -> m.(k) <- m.(k) lor hit
          | None -> ()
        end);
  take t u !removed;
  !removed

let choose t =
  let rec go u =
    if u >= Array.length t.counts then None
    else if t.counts.(u) = 0 then go (u + 1)
    else begin
      let v = ref (-1) in
      Bitrow.iter ~lo:(lo t u) t.rows.(u) (fun x -> if !v < 0 then v := x);
      Some (u, !v)
    end
  in
  go 0
