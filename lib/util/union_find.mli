(** Union-find over integer keys (path compression + union by size). *)

type t

val create : unit -> t

val find : t -> int -> int
(** Representative; unseen keys are their own singleton class. *)

val union : t -> int -> int -> unit

val classes : t -> (int, int list) Hashtbl.t
(** Representative -> members, for every key ever touched. *)
