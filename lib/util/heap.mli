(** Polymorphic binary max-heaps keyed by [float] priority.

    The 2-hop-cover builder uses a heap of candidate center nodes with
    *lazily maintained* priorities (Section 3.2 of the paper): entries are
    popped, their priority re-validated, and pushed back when stale.  The
    router's Dijkstra over the PSG uses it the same way, keyed by the
    negated distance, skipping popped entries that a shorter path has
    superseded.  Neither needs more than [push], [pop_max] and
    [peek_max].  Among equal priorities the lower [rank] pops first; the
    cover builder ranks centers by local number, so its greedy ties fall
    to the lowest one. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> prio:float -> ?rank:int -> 'a -> unit
(** [rank] defaults to 0. *)

val pop_max : 'a t -> (float * 'a) option

val peek_max : 'a t -> (float * 'a) option
