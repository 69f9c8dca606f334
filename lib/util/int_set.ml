type t = int array
(* invariant: strictly increasing *)

let empty : t = [||]

let of_sorted_array_unsafe a = a

let of_list l =
  match List.sort_uniq compare l with
  | [] -> empty
  | l -> Array.of_list l

let to_list = Array.to_list

(* Binary search. *)
let mem x t =
  let lo = ref 0 and hi = ref (Array.length t) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length t && t.(!lo) = x

let iter f t = Array.iter f t

let filter f t =
  let r = Array.of_seq (Seq.filter f (Array.to_seq t)) in
  if Array.length r = Array.length t then t else r
