(** Mutable hash sets of integers.

    Used where label sets are grown incrementally (cover construction,
    incremental maintenance) before being frozen into {!Int_set.t}.

    Monomorphic open addressing: one flat [int array] of power-of-two
    capacity, linear probing from a multiplicative hash, load factor at
    most one half, backward-shift deletion.  Every [int] is storable,
    [min_int] and [max_int] included.  Hashing is deterministic, so the
    same sequence of operations always leaves the same layout.

    {b Iteration contract.}  {!iter}, {!fold} and {!to_list} visit each
    element exactly once in an unspecified order: not insertion order, not
    sorted, and liable to change with capacity or after a {!remove}.  The
    set being iterated must not be mutated ([add], [remove], [clear])
    until the iteration returns; mutating a {e different} set is fine.
    Callers that need deterministic output sort first. *)

type t

val create : ?initial:int -> unit -> t
(** An empty set sized to hold [initial] elements (default 16) without
    growing. *)

val add : t -> int -> unit

val remove : t -> int -> unit

val mem : t -> int -> bool

val cardinal : t -> int

val is_empty : t -> bool

val iter : (int -> unit) -> t -> unit
(** Unordered; see the iteration contract above. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Unordered; see the iteration contract above. *)

val to_list : t -> int list
(** Unordered. *)

val clear : t -> unit
(** Empties the set, keeping its capacity. *)

val copy : t -> t
