(** Index-organized tables with a forward and a backward composite index,
    in the paper's index-organized-table shape (Section 3.4) — the
    storage of a materialised closure ({!Closure_store}), the paper's
    baseline against the 2-hop cover:

    {v CREATE TABLE CLOSURE(ID NUMBER(10), TARGET NUMBER(10)) v}

    The forward index is keyed [(id, label, 0)], the backward index
    [(label, id, 0)]; both are index-organized B+-trees, so the backward
    index doubles the stored data exactly as the paper notes.  A table is
    written once, by bulk-loading both trees from all of its rows.  (Cover
    stores keep their labels in {!Row_table}s instead.) *)

type t

val trees : t -> Btree.t * Btree.t
(** (forward, backward) — for catalog persistence. *)

(** {1 Bulk loading}

    {!of_pairs} takes the rows in any order, sorts them for the forward
    tree, rewrites every row in place into its backward-index form, sorts
    again for the backward tree, and hands each sorted run to
    {!Btree.bulk_load} — forward tree first, so the page layout is
    deterministic for a given row set.  The array is clobbered. *)

val pack : id:int -> label:int -> int
(** One [(id, label)] row in one OCaml int, for {!of_pairs}: rows sort
    with cheap monomorphic int compares.
    @raise Invalid_argument unless both are non-negative 31-bit ints. *)

val of_pairs : Pager.t -> int array -> t
(** A table of {!pack}ed rows, all at distance 0.
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
