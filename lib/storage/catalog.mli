(** The catalog page: page 0 of a persistent index file records the magic
    number, the format version, the store kind, the distance flag and the
    root/length of every B+-tree, so that a {!Cover_store} can be reopened
    from disk and a saved {!Closure_store} is told apart from one. *)

type kind =
  | Cover  (** LIN/LOUT tables + node registry: {!cover_trees} trees *)
  | Closure  (** materialised closure table: {!closure_trees} trees *)

type entry = { root : int; length : int }

type t = {
  kind : kind;
  with_dist : bool;
  trees : entry array;  (** fixed order per kind, see the stores *)
}

val magic : int

val version : int

val cover_trees : int
(** = 5: lin.fwd, lin.bwd, lout.fwd, lout.bwd, nodes. *)

val closure_trees : int
(** = 2: fwd, bwd. *)

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
    not a valid catalog. *)

val expect : kind -> t -> unit
(** @raise Storage_error.Storage_error [(Bad_catalog _)] when the catalog
    holds a different store kind or tree arity. *)
