(** A miniature tag ontology with pairwise similarities, as used by the XXL
    search engine for [~tag] conditions (e.g. the ontological similarity of
    [book] to [monography] or [publication], Section 5.1). *)

type t

val expand : t -> string -> threshold:float -> (string * float) list
(** All tags with similarity ≥ threshold, including the tag itself (1.0),
    best first. *)

val publications : t
(** A small built-in ontology for the bibliographic examples. *)
