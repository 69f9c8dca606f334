(** The set [T'] of not-yet-covered connections maintained by the cover
    builders (Section 3.2), over the local numbers of a
    {!Hopi_graph.Closure}.  Reflexive pairs are excluded from the start:
    they are covered for free by the implicit self-labels.

    Each source [u] keeps its uncovered successors as a {!Hopi_util.Bitrow}
    over the words of its closure row, plus their count; the set keeps the
    total.  Membership and
    removal are bit operations, and the successors of [u] that a center
    [w] reaches are a word AND of [u]'s row with [w]'s closure row. *)

type t

val of_closure : Hopi_graph.Closure.t -> t
(** Start from a full transitive closure: every non-reflexive connection
    is initially uncovered. *)

val of_pairs : Hopi_graph.Closure.t -> (int * int) list -> t
(** Only the given pairs of local numbers; reflexive pairs and pairs not
    in the closure are dropped. *)

val count : t -> int

val is_empty : t -> bool

val mem : t -> int -> int -> bool

val remove : t -> int -> int -> unit
(** Mark one connection as covered (idempotent). *)

val iter_live_ins : t -> int -> (int -> unit) -> unit
(** [iter_live_ins t w f]: [f u] for every ancestor [u] of [w] that still
    has an uncovered connection, ascending: the left side of [w]'s center
    graph. *)

val iter_into : t -> int -> lo:int -> int array -> (int -> unit) -> unit
(** [iter_into t u ~lo r f]: [f v] for every uncovered [(u, v)] with [v]
    in the row [(lo, r)], ascending.  [f] may remove [(u, v)]. *)

val cover : ?touched:int array -> t -> int -> lo:int -> int array -> int
(** [cover t u ~lo r] removes every uncovered [(u, v)] with [v] in the row
    [(lo, r)] and returns how many it removed; [touched], a row from word 0,
    gains each removed [v]. *)

val choose : t -> (int * int) option
(** Any uncovered pair. *)
