(** Update traces for the maintenance experiments (Section 7.3): sequences
    of document deletions / re-insertions / modifications and link edits
    over a generated collection. *)

type op =
  | Delete_doc of string  (** by document name *)
  | Reinsert_doc of string * string  (** name, XML text *)
  | Add_link of string * string  (** source doc name -> target doc name (root) *)

val churn_trace :
  seed:int -> n_ops:int -> (int -> string) -> Hopi_collection.Collection.t -> op list
(** Alternating deletions and re-insertions of the same documents; the
    function regenerates the XML of document [i] (e.g.
    [Dblp_gen.document_xml cfg]). *)
