(* Distance-aware indexing (Section 5): build the distance-augmented 2-hop
   cover, persist it into the LIN/LOUT tables of the storage engine, and
   answer MIN(LOUT.DIST + LIN.DIST) queries from the paged index.

   Run with: dune exec examples/distance_ranking.exe *)

module Collection = Hopi_collection.Collection
module Dist_builder = Hopi_twohop.Dist_builder
module Cover = Hopi_twohop.Cover
module Verify = Hopi_twohop.Verify
module Pager = Hopi_storage.Pager
module Cover_store = Hopi_storage.Cover_store
module Dblp = Hopi_workload.Dblp_gen
module Timer = Hopi_util.Timer

let () = Hopi_obs.Log_setup.setup ()

let () =
  let c = Dblp.generate (Dblp.default ~n_docs:60) in
  let g = Collection.element_graph c in
  Fmt.pr "collection: %d elements, %d links@." (Collection.n_elements c)
    (Collection.n_links c);

  (* Build the distance-aware cover (centers restricted to shortest paths,
     initial densities estimated by sampling). *)
  let (cover, stats), t = Timer.time (fun () -> Dist_builder.build g) in
  Fmt.pr "distance cover: %d entries in %a (%d iterations, %d sampled estimates)@."
    (Cover.size cover) Timer.pp_duration t stats.Dist_builder.iterations
    stats.Dist_builder.sampled_nodes;

  (* Exhaustive verification against BFS distances. *)
  let mism = Verify.dist_cover_vs_graph cover g in
  Fmt.pr "verified against BFS: %d mismatches@." (List.length mism);
  assert (mism = []);

  (* Persist into LIN(ID,INID,DIST)/LOUT(ID,OUTID,DIST), then query
     through the paged index and its bounded read pool. *)
  let pager = Pager.create ~pool_pages:64 Pager.Memory in
  let store = Cover_store.of_cover pager cover in
  Fmt.pr "stored: %d entries = %d integers on %d pages (%d KiB)@."
    (Cover_store.n_entries store)
    (Cover_store.stored_integers store)
    (Pager.n_pages pager)
    (Pager.size_bytes pager / 1024);

  (* Ranked retrieval: authors by link distance from a publication root. *)
  let docs = List.sort compare (Collection.doc_ids c) in
  let root = Collection.doc_root_element c (List.nth docs (List.length docs - 1)) in
  let authors = Collection.elements_with_tag c "author" in
  let reachable =
    List.filter_map
      (fun a ->
        Option.map (fun d -> (a, d)) (Cover_store.min_distance store root a))
      authors
  in
  (* the paged answers are the in-memory cover's *)
  assert (
    List.for_all
      (fun a -> Cover_store.min_distance store root a = Cover.dist cover root a)
      authors);
  let ranked = List.sort (fun (_, d1) (_, d2) -> compare d1 d2) reachable in
  Fmt.pr "@.authors reachable from %s, nearest first:@."
    (Collection.doc_name c (Collection.doc_of_element c root));
  List.iteri
    (fun i (a, d) ->
      if i < 8 then
        Fmt.pr "  distance %2d: author in %s@." d
          (Collection.doc_name c (Collection.doc_of_element c a)))
    ranked;

  let st = Pager.stats pager in
  let pool = st.Pager.pool in
  Fmt.pr "@.read pool: %d hits, %d misses, %d evictions@." pool.Pager.Read_pool.hits
    pool.Pager.Read_pool.misses pool.Pager.Read_pool.evictions
