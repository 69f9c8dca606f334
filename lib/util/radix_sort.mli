(** LSD radix sort for non-negative integers.

    The cover sorts its node ids when it freezes; counting passes over
    16-bit digits (8-bit below 2^16 entries) beat a comparison sort by the [log n]
    indirect-compare factor.  The pass count adapts to the largest value
    present, so arrays of small ids sort in a few linear passes. *)

val sort_uniq_prefix : int array -> int -> int
(** [sort_uniq_prefix a len] sorts [a.(0..len-1)] ascending in place and
    drops repeated values, returning the number [k] of distinct values; they
    occupy [a.(0..k-1)].  The rest of the array is unspecified.

    @raise Invalid_argument on a negative entry in the prefix. *)
