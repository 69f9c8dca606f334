module Digraph = Hopi_graph.Digraph
module Bitrow = Hopi_util.Bitrow

type t = {
  graph : Digraph.t;
  sources : int array;
  targets : int array;
  link_edges : (int * int) list;
}

(* {1 The row stage} *)

type rows = { keys : int array; lo : int array; bits : int array array; dist : int array array }

let of_sets ~keys ?(dist = [||]) sets =
  let row ts =
    if ts = [||] then (0, [||])
    else begin
      let word j = j / Bitrow.bits in
      let lo = word ts.(0) in
      let r = Array.make (word ts.(Array.length ts - 1) - lo + 1) 0 in
      Array.iter (fun j -> r.(word j - lo) <- r.(word j - lo) lor (1 lsl (j mod Bitrow.bits))) ts;
      (lo, r)
    end
  in
  let rows = Array.map row sets in
  { keys; lo = Array.map fst rows; bits = Array.map snd rows; dist }

let index rows =
  let n = if rows.keys = [||] then 0 else rows.keys.(Array.length rows.keys - 1) + 1 in
  let at = Array.make n (-1) in
  Array.iteri (fun r c -> at.(c) <- r) rows.keys;
  fun c -> if c < n then at.(c) else -1

(* A dense bit row over the target numbers, and the span of words the
   rows ORed in since it was last cleared *)
type scratch = { seen : int array; mutable first : int; mutable last : int }

let scratch n = { seen = Array.make ((n / Bitrow.bits) + 1) 0; first = max_int; last = -1 }

let add s rows r =
  let lo = rows.lo.(r) and b = rows.bits.(r) in
  if Array.length b > 0 then begin
    s.first <- Int.min s.first lo;
    s.last <- Int.max s.last (lo + Array.length b - 1);
    for w = 0 to Array.length b - 1 do
      s.seen.(lo + w) <- s.seen.(lo + w) lor b.(w)
    done
  end

let clear s =
  if s.last >= s.first then Array.fill s.seen s.first (s.last - s.first + 1) 0;
  s.first <- max_int;
  s.last <- -1

let flatten s rows row label v f =
  let center c _ =
    let r = row c in
    if r >= 0 then add s rows r
  in
  center v 0;
  label v center;
  for w = s.first to s.last do
    Bitrow.iter_word (w * Bitrow.bits) s.seen.(w) f
  done;
  clear s

(* Per center, the least-distance union of the rows of the keys of [src]
   that name it: each key with a row names itself at 0 and every center
   of [label key] at the label's distance.  The namings are sorted by
   center; a center's rows are ORed into the scratch, their distances
   minimised in [best], and the scratch's words, trimmed since every row
   ORed in is, make the center's row. *)
let by_center ~n label src =
  let plain = src.dist = [||] and named = ref [] in
  Array.iteri
    (fun i k ->
      if src.bits.(i) <> [||] then begin
        named := (k, i, 0) :: !named;
        label k (fun c d -> named := (c, i, d) :: !named)
      end)
    src.keys;
  let named = Array.of_list !named in
  Array.sort (fun (c, _, _) (c', _, _) -> Int.compare c c') named;
  let center g = match named.(g) with c, _, _ -> c in
  let keys = Array.of_list (List.sort_uniq Int.compare (List.init (Array.length named) center)) in
  let m = Array.length keys in
  let lo = Array.make m 0 and bits = Array.make m [||] and dist = Array.make (if plain then 0 else m) [||] in
  let s = scratch n and best = Array.make (if plain then 0 else n) max_int and g = ref 0 in
  for r = 0 to m - 1 do
    while !g < Array.length named && center !g = keys.(r) do
      let _, i, d = named.(!g) in
      add s src i;
      if not plain then begin
        let k = ref 0 in
        Bitrow.iter ~lo:src.lo.(i) src.bits.(i) (fun j ->
            best.(j) <- Int.min best.(j) (d + src.dist.(i).(!k));
            incr k)
      end;
      incr g
    done;
    lo.(r) <- s.first;
    bits.(r) <- Array.sub s.seen s.first (s.last - s.first + 1);
    clear s;
    if not plain then begin
      let k = ref 0 in
      dist.(r) <- Array.make (Bitrow.count bits.(r)) 0;
      Bitrow.iter ~lo:lo.(r) bits.(r) (fun j ->
          dist.(r).(!k) <- best.(j);
          best.(j) <- max_int;
          incr k)
    end
  done;
  { keys; lo; bits; dist }

let routes ~targets ~lin ~lout closure =
  let n = Array.length targets in
  let self = Array.init n (fun j -> [| j |]) in
  let dist = if closure.dist = [||] then [||] else Array.make n [| 0 |] in
  (by_center ~n lin closure, by_center ~n lout (of_sets ~keys:targets ~dist self))

let build ~links ~lin ~lout =
  let graph = Digraph.create () in
  List.iter (fun (u, v) -> Digraph.add_edge graph u v) links;
  let ends f = Array.of_list (List.sort_uniq compare (List.map f links)) in
  let sources = ends fst and targets = ends snd in
  (* within edges, read off the labels: the sources grouped by the centers
     of Lin(s) ∪ {s}, flattened through each target's Lout(t) ∪ {t} *)
  let n = Array.length sources in
  let named = by_center ~n lin (of_sets ~keys:sources (Array.init n (fun i -> [| i |]))) in
  let row = index named and s = scratch n in
  Array.iter
    (fun t ->
      flatten s named row lout t (fun i ->
          if sources.(i) <> t then Digraph.add_edge graph t sources.(i)))
    targets;
  { graph; sources; targets; link_edges = links }
