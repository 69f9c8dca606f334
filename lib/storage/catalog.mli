(** The catalog page: page 0 of a persistent index file records the magic
    number, the format version, the store kind and the distance flag,
    then where the store's {!Row_table}s live, so that a {!Cover_store}
    can be reopened from disk.  There is one store kind, the cover store
    (a materialised closure is stored as the trivial cover, see
    {!Cover_store.of_closure}); a kind word other than 0 is rejected. *)

type rows = {
  heap_first : int;  (** first page of the row heap *)
  heap_pages : int;
  heap_bytes : int;  (** heap bytes in use, padding included *)
  dir_first : int;  (** first page of the directory *)
  dir_pages : int;
  dir_bytes : int;  (** bytes of the directory's varint stream *)
  n_keys : int;  (** directory keys: registered nodes and centers *)
  entries : int array;
      (** label entries per row table, in {!Row_table} table order *)
}
(** Where a {!Row_table} lives. *)

type t = {
  with_dist : bool;  (** any stored distance is non-zero *)
  rows : rows;  (** LIN/LOUT, forward and backward: {!cover_tables} row tables *)
}

val cover_tables : int
(** = 4: Lin, Lin by center, Lout, Lout by center. *)

val reserve : string -> Pager.t -> unit
(** [reserve who pager] allocates page 0 for the catalog; a store is
    written once, onto a fresh pager.
    @raise Invalid_argument (naming [who]) when the pager already has
    pages. *)

val write : Pager.t -> t -> unit
(** Writes page 0 (which must already be allocated). *)

val read : Pager.t -> t
(** @raise Storage_error.Storage_error — [Truncated] when the store has no
    page 0, [Bad_magic] / [Bad_version] / [Bad_catalog] on a page that is
    not a valid catalog (an unknown store kind included). *)
