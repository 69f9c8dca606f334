(** LSD radix sort for non-negative integers.

    The PSG join's apply stage sorts millions of packed entries, and the
    cover sorts its node ids when it freezes; counting passes over 16-bit digits (8-bit
    below 2^16 entries) beat a comparison sort by the [log n]
    indirect-compare factor.  The pass count adapts to the largest value
    present, so arrays of small packed ids sort in a few linear passes. *)

val sort_uniq_prefix : ?scratch:int array -> ?from_bit:int -> int array -> int -> int
(** [sort_uniq_prefix a len] sorts [a.(0..len-1)] ascending in place and
    drops repeated values, returning the number [k] of distinct values; they
    occupy [a.(0..k-1)].  The rest of the array is unspecified.  A
    [scratch] array of at least [len] entries serves as the sort's work
    space (its contents are overwritten), so a caller that sorts the same
    buffer again and again allocates nothing.

    With [from_bit] (default 0) the sort orders by [v lsr from_bit] only,
    and stably: entries equal above that bit keep their order.  The
    result is sorted when every such group already stands in order, and
    a prefix whose values fit in [from_bit] bits takes no pass at all.

    @raise Invalid_argument on a negative entry in the prefix. *)
