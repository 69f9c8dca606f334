(** Path expressions with wildcards — the query class HOPI accelerates
    (Section 1.1): XPath-style steps over the descendant axis of the
    element graph (which includes links), e.g.

    - [//book//author] — classic wildcard path
    - [//~book//author] — with ontology-based tag similarity ([~], as in
      the XXL search engine)
    - [/bib/book/title] — child-axis steps
    - [//article//*] — any-tag steps
    - [//article[//cite][/year]//author] — branching paths: existential
      predicates relative to the step's element
    - [//article[//title["xml"]]//author] — IR-style content conditions *)

type axis =
  | Child  (** [/]: parent-child tree edge *)
  | Descendant  (** [//]: reachability along edges and links *)

type test =
  | Tag of string
  | Similar of string  (** [~tag]: ontology-similar tags *)
  | Any  (** [*] *)

type step = {
  axis : axis;
  test : test;
  predicates : pred list;
      (** existential filters: the element must satisfy every bracketed
          condition *)
}

and pred =
  | Path of t
      (** [//book[//author]]: a relative path with at least one match *)
  | Contains of string
      (** [//title["xml"]]: the element's subtree text contains the term *)

and t = step list

val parse : string -> (t, string) result
(** @return [Error msg] on syntax errors (empty steps, bad characters). *)

val parse_exn : string -> t
