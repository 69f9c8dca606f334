(** Word bitsets over dense node numbers that cover a range of words.

    A row [(lo, r)] holds number [x] iff [r.((x / bits) - lo)] has bit
    [x mod bits] set.  Words hold 62 bits, so no word uses the sign bit.
    The closure kernel keeps one row per strongly connected component and
    the cover builder one per node; both cover only the words between the
    lowest and the highest number they can hold. *)

val bits : int
(** = 62. *)

val popcount : int -> int

val count : int array -> int
(** Bits set in a row. *)

val mem : lo:int -> int array -> int -> bool

val iter : lo:int -> int array -> (int -> unit) -> unit
(** [iter ~lo r f]: [f x] for every number [x] in the row, ascending. *)

val iter_word : int -> int -> (int -> unit) -> unit
(** [iter_word base w f]: [f (base + i)] for every bit [i] set in [w],
    ascending. *)
