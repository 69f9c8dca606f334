(** Page-backed B+-trees over composite 32-bit integer keys.

    A key is a triple [(a, b, c)] compared lexicographically, and is the
    whole record — the trees are index-organized, exactly like the paper's
    tables whose primary key is the concatenation of all columns
    (Section 3.4).  A {!Table} keeps a forward tree keyed [(id, label, 0)]
    and a backward tree re-keying the same rows as [(label, id, 0)].

    Trees are written once: {!bulk_load} builds a whole tree from a sorted
    key stream, building each page fresh and handing it to {!Pager.write}
    once, and nothing changes it afterwards.  Searches and scans read
    pages through the pager's read pool and never mutate them, so leaves
    and internal nodes are packed to capacity and no page is ever
    freed. *)

type t

type key = int * int * int

val root : t -> int
(** Root page id, for the {!Catalog}. *)

val of_root : Pager.t -> root:int -> length:int -> t
(** Re-attach to a tree stored earlier (see {!Catalog}). *)

val bulk_load : Pager.t -> next:(unit -> key option) -> t
(** Build a tree bottom-up from a strictly ascending key stream: leaves
    are written left-to-right to capacity and chained, internal nodes are
    stitched over them — no per-key descent, every page written once.
    [next] is polled until it returns [None]; an empty stream yields an
    empty tree (one empty leaf).
    @raise Invalid_argument on an out-of-range component or a stream that
    is not strictly ascending. *)

val mem : t -> key -> bool

val length : t -> int

val iter_from : t -> key -> (key -> bool) -> unit
(** [iter_from t lo f] visits keys [>= lo] in order while [f] returns
    [true]. *)

val iter_prefix1 : t -> int -> (key -> unit) -> unit
(** All keys with first component equal to the argument. *)

val iter_prefix2 : t -> int -> int -> (key -> unit) -> unit

val min_i32 : int
(** Smallest storable component value. *)

val max_i32 : int
