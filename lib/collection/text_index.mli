(** A small inverted index over element text, for the IR-style content
    conditions of the XXL search engine the paper's introduction motivates
    (ranked queries like [//~book//author] combined with content terms).

    Terms are lowercased maximal alphanumeric runs of the elements'
    immediate text. *)

type t

val build : Collection.t -> t

val subtree_contains : t -> Collection.t -> int -> string -> bool
(** Does the element's subtree (within its document tree) contain the term?
    Uses pre/post containment against the posting list. *)
