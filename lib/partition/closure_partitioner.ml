module Collection = Hopi_collection.Collection
module Digraph = Hopi_graph.Digraph
module Closure = Hopi_graph.Closure

(* The admission test adds the candidate document's elements (and all edges
   among elements already present) to a working element graph, recounts the
   closure, and rolls back if the budget is exceeded.  Counting uses
   [Closure.count_connections] (one Tarjan pass with per-SCC word bitsets),
   so no per-node successor sets are materialised. *)

let partition ?seed ~max_connections c dg =
  let work = ref (Digraph.create ()) in
  let add_doc g d =
    let eg = Collection.element_graph c in
    List.iter
      (fun e ->
        Digraph.add_node g e;
        Digraph.iter_succ eg e (fun v -> if Digraph.mem_node g v then Digraph.add_edge g e v);
        Digraph.iter_pred eg e (fun u -> if Digraph.mem_node g u then Digraph.add_edge g u e))
      (Collection.elements_of_doc c d)
  in
  let remove_doc g d =
    List.iter (fun e -> Digraph.remove_node g e) (Collection.elements_of_doc c d)
  in
  Grow.run ?seed c dg
    ~fresh_partition:(fun () -> work := Digraph.create ())
    ~admits:(fun d ->
      let g = !work in
      add_doc g d;
      if Closure.count_connections g <= max_connections then true
      else begin
        remove_doc g d;
        false
      end)
    ~added:(fun d ->
      (* the admission test already inserted accepted candidates; only the
         always-accepted seed document still needs inserting *)
      let g = !work in
      match Collection.elements_of_doc c d with
      | e :: _ when not (Digraph.mem_node g e) -> add_doc g d
      | _ -> ())
