(** Growable arrays (OCaml 5.1 predates [Dynarray] in the stdlib). *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val get : 'a t -> int -> 'a

val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** @raise Invalid_argument if empty. *)

val to_array : 'a t -> 'a array

