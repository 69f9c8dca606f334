let distance_score d = 1.0 /. (1.0 +. float_of_int d)

type 'a ranked = { item : 'a; score : float }

let top_k k l =
  let sorted = List.stable_sort (fun a b -> compare b.score a.score) l in
  List.filteri (fun i _ -> i < k) sorted
