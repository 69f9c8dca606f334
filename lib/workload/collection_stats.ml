module Collection = Hopi_collection.Collection

type t = {
  n_docs : int;
  n_elements : int;
  n_links : int;
  n_inter_links : int;
  size_bytes : int;
}

let of_collection c =
  {
    n_docs = Collection.n_docs c;
    n_elements = Collection.n_elements c;
    n_links = Collection.n_links c;
    n_inter_links = Collection.n_inter_links c;
    size_bytes = Collection.serialized_size c;
  }
