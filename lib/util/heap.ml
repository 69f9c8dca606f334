(* entries are [(prio, rank, x)]; [above a b]: [a] pops before [b] *)
type 'a t = (float * int * 'a) Dyn_array.t

let create () = Dyn_array.create ()

let is_empty t = Dyn_array.length t = 0

let swap t i j =
  let x = Dyn_array.get t i in
  Dyn_array.set t i (Dyn_array.get t j);
  Dyn_array.set t j x

let above t i j =
  let p, r, _ = Dyn_array.get t i and q, s, _ = Dyn_array.get t j in
  p > q || (p = q && r < s)

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if above t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let n = Dyn_array.length t in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < n && above t l !best then best := l;
  if r < n && above t r !best then best := r;
  if !best <> i then begin
    swap t i !best;
    sift_down t !best
  end

let push t ~prio ~rank x =
  Dyn_array.push t (prio, rank, x);
  sift_up t (Dyn_array.length t - 1)

let top (p, _, x) = (p, x)

let pop_max t =
  let n = Dyn_array.length t in
  if n = 0 then None
  else begin
    let first = Dyn_array.get t 0 in
    swap t 0 (n - 1);
    ignore (Dyn_array.pop t);
    if Dyn_array.length t > 0 then sift_down t 0;
    Some (top first)
  end

let peek_max t = if is_empty t then None else Some (top (Dyn_array.get t 0))
