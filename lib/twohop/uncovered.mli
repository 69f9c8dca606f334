(** The set [T'] of not-yet-covered connections maintained by the cover
    builder (Section 3.2).  Reflexive pairs are excluded from the start:
    they are covered for free by the implicit self-labels. *)

type t

val of_closure : Hopi_graph.Closure.t -> t
(** Start from a full transitive closure: every non-reflexive connection
    is initially uncovered. *)

val of_pairs : (int * int) list -> t
(** Non-reflexive pairs only; reflexive input pairs are dropped. *)

val count : t -> int

val is_empty : t -> bool

val mem : t -> int -> int -> bool

val remove : t -> int -> int -> unit
(** Mark one connection as covered (idempotent). *)

val iter_succ : t -> int -> (int -> unit) -> unit
(** Uncovered connections leaving a node. *)

val succ_count : t -> int -> int

val iter_sources : t -> (int -> unit) -> unit
(** Nodes that still have at least one uncovered outgoing connection. *)

val source_count : t -> int

val choose : t -> (int * int) option
(** Any uncovered pair. *)
