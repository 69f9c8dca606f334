(** Scoring for ranked path-query results (Section 5.1): a match combines
    per-step tag similarity with a distance decay — an [author] that is a
    child or grandchild of a [book] outranks one that is far away. *)

val distance_score : int -> float
(** [1 / (1 + d)]; 1.0 for distance 0. *)

type 'a ranked = { item : 'a; score : float }

val top_k : int -> 'a ranked list -> 'a ranked list
(** Best-first, stable for equal scores. *)
