(** Index-organized tables with a forward and a backward composite index —
    the storage shape of the paper's LIN and LOUT tables (Section 3.4):

    {v CREATE TABLE LIN(ID NUMBER(10), INID NUMBER(10) [, DIST NUMBER(10)]) v}

    The forward index is keyed [(id, label, dist)], the backward index
    [(label, id, dist)]; both are index-organized B+-trees, so the backward
    index doubles the stored data exactly as the paper notes. *)

type t

val create : Pager.t -> t

val of_trees : fwd:Btree.t -> bwd:Btree.t -> t
(** Re-attach to persisted trees (see {!Catalog}). *)

val trees : t -> Btree.t * Btree.t
(** (forward, backward) — for catalog persistence. *)

val insert : t -> id:int -> label:int -> dist:int -> bool
(** [false] when the identical row already existed. *)

val delete : t -> id:int -> label:int -> dist:int -> bool

val delete_all_of_id : t -> int -> int
(** Remove every row with this [id]; returns how many were removed. *)

val delete_all_of_label : t -> int -> int

val mem : t -> id:int -> label:int -> bool
(** Any distance. *)

val iter_by_id : t -> int -> (label:int -> dist:int -> unit) -> unit
(** Rows in label order — a forward-index range scan. *)

val iter_by_label : t -> int -> (id:int -> dist:int -> unit) -> unit
(** Rows in id order — a backward-index range scan. *)

val length : t -> int
(** Number of rows (entries). *)
