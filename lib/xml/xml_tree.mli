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

val attr : t -> string -> string option

val to_string : ?indent:bool -> t -> string
(** Serialise, escaping text and attribute values. *)
