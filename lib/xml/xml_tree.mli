(** Parsed XML documents as element trees.

    The model deliberately ignores document order beyond the tree structure
    (Section 2 of the paper: child order is irrelevant for schema-less
    collections), but children are kept in parse order for printing. *)

type t = {
  tag : string;
  attrs : (string * string) list;
  children : child list;
}

and child = Element of t | Text of string

val element : ?attrs:(string * string) list -> ?children:child list -> string -> t

val attr : t -> string -> string option

val child_elements : t -> t list

val iter_elements : (t -> unit) -> t -> unit
(** Preorder over all elements including the root. *)

val count_elements : t -> int

val text_content : t -> string
(** Concatenation of all descendant text nodes. *)

val find_by_id : t -> string -> t option
(** First element (preorder) whose [id] attribute equals the argument. *)

val to_string : ?indent:bool -> t -> string
(** Serialise, escaping text and attribute values. *)

val depth : t -> int
(** Height of the element tree; a single element has depth 1. *)
