(** The baseline HOPI is measured against (Section 7.2): the materialised
    reflexive-transitive closure stored as an index-organized table with a
    forward and a backward index — four integers per connection, exactly the
    paper's accounting of 1,379,969,480 integers for the DBLP closure.

    Queries are single index probes (faster than the cover's
    merge-intersection); the price is the quadratic-ish space.  Only the
    benchmark harness builds one, for the size comparison; no serving path
    opens a saved closure store. *)

type t

val of_closure : Pager.t -> Hopi_graph.Closure.t -> t
(** Bulk-load every connection of a computed closure (and its
    backward-index row) onto a fresh pager; page 0 is reserved for the
    {!Catalog}.
    @raise Invalid_argument when the pager already has pages. *)

val pager : t -> Pager.t

val save : t -> unit
(** Write the catalog and {!Pager.commit} (atomic, like
    {!Cover_store.save}). *)

val connected : t -> int -> int -> bool
(** One forward-index probe.  Reflexive for any node the closure saw. *)

val descendants : t -> int -> Hopi_util.Int_hashset.t
(** Forward-index range scan; includes the node itself. *)

val ancestors : t -> int -> Hopi_util.Int_hashset.t
(** Backward-index range scan; includes the node itself. *)

val n_connections : t -> int

val stored_integers : t -> int
(** 4 per connection (row + backward index). *)
