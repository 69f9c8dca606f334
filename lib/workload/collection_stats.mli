(** Collection features as reported in the paper's Table 1. *)

type t = {
  n_docs : int;
  n_elements : int;
  n_links : int;  (** intra + inter *)
  n_inter_links : int;
  size_bytes : int;  (** serialised size of all documents *)
}

val of_collection : Hopi_collection.Collection.t -> t
