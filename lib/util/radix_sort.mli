(** LSD radix sort for non-negative integers.

    The PSG join's apply stage and the cover's grouped batch inserts sort
    millions of packed entries; counting passes over 16-bit digits (8-bit
    below 2^16 entries) beat a comparison sort by the [log n]
    indirect-compare factor.  The pass count adapts to the largest value
    present, so arrays of small packed ids sort in a few linear passes. *)

val sort : int array -> unit
(** Sort the array ascending, in place.  O(n) scratch.

    @raise Invalid_argument on a negative entry. *)

val sort_prefix : int array -> int -> unit
(** [sort_prefix a len] sorts [a.(0..len-1)] ascending in place, ignoring
    the tail.

    @raise Invalid_argument on a negative entry in the prefix. *)

val sort_uniq_prefix : ?scratch:int array -> int array -> int -> int
(** [sort_uniq_prefix a len] sorts [a.(0..len-1)] ascending in place and
    drops repeated values, returning the number [k] of distinct values; they
    occupy [a.(0..k-1)].  The rest of the array is unspecified.  A
    [scratch] array of at least [len] entries serves as the sort's work
    space (its contents are overwritten), so a caller that sorts the same
    buffer again and again allocates nothing.

    @raise Invalid_argument on a negative entry in the prefix. *)
