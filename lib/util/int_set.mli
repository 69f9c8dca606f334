(** Immutable sets of integers backed by sorted arrays.

    Sets are built once from a list or a sorted array and then only read;
    membership is [O(log n)]. *)

type t

val empty : t

val of_list : int list -> t
(** Duplicates are removed. *)

val of_sorted_array_unsafe : int array -> t
(** The array must be strictly increasing; it is used without copying. *)

val to_list : t -> int list

val mem : int -> t -> bool

val iter : (int -> unit) -> t -> unit

val filter : (int -> bool) -> t -> t
