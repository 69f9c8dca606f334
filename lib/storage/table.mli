(** Index-organized tables with a forward and a backward composite index —
    the storage shape of the paper's LIN and LOUT tables (Section 3.4):

    {v CREATE TABLE LIN(ID NUMBER(10), INID NUMBER(10) [, DIST NUMBER(10)]) v}

    The forward index is keyed [(id, label, dist)], the backward index
    [(label, id, dist)]; both are index-organized B+-trees, so the backward
    index doubles the stored data exactly as the paper notes.  A table is
    written once, by bulk-loading both trees from all of its rows. *)

type t

val of_trees : fwd:Btree.t -> bwd:Btree.t -> t
(** Re-attach to persisted trees (see {!Catalog}). *)

val trees : t -> Btree.t * Btree.t
(** (forward, backward) — for catalog persistence. *)

(** {1 Bulk loading}

    Both constructors take the rows in any order, sort them for the
    forward tree, rewrite every row in place into its backward-index form,
    sort again for the backward tree, and hand each sorted run to
    {!Btree.bulk_load} — forward tree first, so the page layout is
    deterministic for a given row set.  The array is clobbered. *)

val pack : id:int -> label:int -> int
(** One [(id, label)] row with distance 0 in one OCaml int, for
    {!of_pairs}: plain covers and closures sort these with cheap
    monomorphic int compares.
    @raise Invalid_argument unless both are non-negative 31-bit ints. *)

val of_pairs : Pager.t -> int array -> t
(** A table of {!pack}ed rows, all at distance 0.
    @raise Invalid_argument on a duplicate row. *)

val of_rows : Pager.t -> Btree.key array -> t
(** A table of [(id, label, dist)] rows.
    @raise Invalid_argument on a duplicate row. *)

(** {1 Queries} *)

val mem : t -> id:int -> label:int -> bool
(** Any distance. *)

val iter_by_id : t -> int -> (label:int -> dist:int -> unit) -> unit
(** Rows in label order — a forward-index range scan. *)

val iter_by_label : t -> int -> (id:int -> dist:int -> unit) -> unit
(** Rows in id order — a backward-index range scan. *)

val length : t -> int
(** Number of rows (entries). *)
