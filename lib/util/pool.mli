(** A fixed-size pool of worker domains for data-parallel phases.

    [create ~jobs] spawns [jobs - 1] worker domains that sleep on a
    condition variable between submissions; the submitting domain itself
    participates as the [jobs]-th worker, so a pool of size 1 spawns
    nothing and every operation degrades to a plain sequential loop.

    Work is always an indexed range [0 .. n-1].  Items are handed out
    through an atomic cursor in chunks (default 1 — partition covers are
    few and heavy; pass a larger [chunk] for many tiny items), so uneven
    item costs balance automatically.  Results of {!parallel_map} land at
    their own index: output order is deterministic and independent of
    which domain ran which item, which is what makes the parallel build
    bit-identical to the sequential one.

    If an item raises, the first exception (and its backtrace) wins,
    remaining unstarted items are skipped, and the exception is re-raised
    in the submitting domain once the range is drained.

    Discipline: one submission at a time per pool (the build pipeline runs
    its phases sequentially and parallelises inside each).  A nested
    submission from inside a worker item runs sequentially on that worker
    rather than deadlocking. *)

type t

val jobs : t -> int

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exceptions). *)

val parallel_map : t -> ?chunk:int -> int -> (int -> 'a) -> 'a array
(** [parallel_map t n f] is [[| f 0; ...; f (n-1) |]] computed on the
    pool's domains, each [f i] exactly once; slot [i] always holds [f i].
    Returns when all items finished. *)

val map_array : t -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array t f a] is [Array.map f a] on the pool's domains. *)
