(** Polymorphic binary max-heaps keyed by [float] priority.

    The 2-hop-cover builder uses a heap of candidate center nodes with
    *lazily maintained* priorities (Section 3.2 of the paper): entries are
    popped, their priority re-validated, and pushed back when stale; the
    plain and the distance-aware builder need no more than [push],
    [pop_max] and [peek_max].  Among equal priorities the lower [rank]
    pops first; both builders rank centers by local number, so their
    greedy ties fall to the lowest one. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> prio:float -> rank:int -> 'a -> unit

val pop_max : 'a t -> (float * 'a) option

val peek_max : 'a t -> (float * 'a) option
