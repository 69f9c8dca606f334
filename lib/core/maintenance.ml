module Cover = Hopi_twohop.Cover
module Builder = Hopi_twohop.Builder
module Closure = Hopi_graph.Closure
module Digraph = Hopi_graph.Digraph
module Traversal = Hopi_graph.Traversal
module Collection = Hopi_collection.Collection
module Doc_graph = Hopi_collection.Doc_graph
module Ihs = Hopi_util.Int_hashset
module Int_set = Hopi_util.Int_set
module Timer = Hopi_util.Timer

let log = Logs.Src.create "hopi.maintenance" ~doc:"HOPI incremental maintenance"

module Log = (val Logs.src_log log : Logs.LOG)

(* {1 Metrics} *)

module Counter = Hopi_obs.Counter
module Histogram = Hopi_obs.Histogram
module Trace = Hopi_obs.Trace
module Registry = Hopi_obs.Registry

let m_insert_edges =
  Registry.counter "hopi_maint_insert_edges_total" ~help:"Edge insertions"

let m_insert_documents =
  Registry.counter "hopi_maint_insert_documents_total" ~help:"Document insertions"

let m_insert_subtrees =
  Registry.counter "hopi_maint_insert_subtrees_total" ~help:"Subtree insertions"

let m_delete_documents =
  Registry.counter "hopi_maint_delete_documents_total" ~help:"Document deletions"

let m_delete_links =
  Registry.counter "hopi_maint_delete_links_total" ~help:"Link deletions"

let m_delete_subtrees =
  Registry.counter "hopi_maint_delete_subtrees_total" ~help:"Subtree deletions"

let m_delete_separating =
  Registry.counter "hopi_maint_delete_separating_total"
    ~help:"Deletions taking the Theorem-2 separating fast path"

let m_delete_general =
  Registry.counter "hopi_maint_delete_general_total"
    ~help:"Deletions taking the Theorem-3 partial-recomputation path"

let m_recomputed_nodes =
  Registry.counter "hopi_maint_recomputed_nodes_total"
    ~help:"Nodes whose closure was recomputed by general deletions"

let h_separation_test_ns =
  Registry.histogram "hopi_maint_separation_test_duration_ns"
    ~help:"Document-level separation test time"

let h_delete_ns =
  Registry.histogram "hopi_maint_delete_duration_ns"
    ~help:"Document deletion time (either path)"

let h_insert_doc_ns =
  Registry.histogram "hopi_maint_insert_doc_duration_ns"
    ~help:"Document insertion time"

type delete_stats = {
  separating : bool;
  test_seconds : float;
  delete_seconds : float;
  recomputed_nodes : int;
}

(* The plain cover of the subgraph [members] induces: closure, then the
   §3 builder over it.  Document insertion covers the new document this
   way, and both deletion paths their partial recomputation L̂. *)
let cover_of_induced g members =
  fst (Builder.build (Closure.compute (Digraph.induced_subgraph g members)))

(* {1 Insertions} *)

let insert_edge cover u v =
  Counter.incr m_insert_edges;
  ignore (Join_incremental.join cover [ (u, v) ])

let insert_element c cover ~doc ~parent ~tag =
  let e = Collection.add_element c ~doc ~parent ~tag in
  Cover.add_node cover e;
  insert_edge cover parent e;
  e

let insert_link c cover u v =
  let kind = Collection.add_link c u v in
  insert_edge cover u v;
  kind

let insert_document c cover ~name root =
  Counter.incr m_insert_documents;
  Trace.with_span "maint.insert_doc" @@ fun () ->
  let t0 = Timer.start () in
  Log.info (fun m -> m "inserting document %s" name);
  let links_before = Hashtbl.create 64 in
  List.iter
    (fun l -> Hashtbl.replace links_before l ())
    (Collection.inter_links c);
  let did = Collection.add_document c ~name root in
  (* the new document alone is a partition: cover its internal connections
     (tree edges + intra-document links) *)
  let members = Ihs.create () in
  List.iter (fun e -> Ihs.add members e) (Collection.elements_of_doc c did);
  (* the induced subgraph contains exactly the internal edges, because all
     links incident to other documents leave the member set *)
  Cover.union_into ~dst:cover (cover_of_induced (Collection.element_graph c) members);
  (* merge with the existing cover: every new inter-document link (outgoing
     references plus restored pending links from older documents) is a
     cross-partition link, handled by the incremental join *)
  let new_links =
    List.filter (fun l -> not (Hashtbl.mem links_before l)) (Collection.inter_links c)
  in
  ignore (Join_incremental.join cover new_links);
  Trace.add "new_links" (List.length new_links);
  Histogram.observe h_insert_doc_ns (Int64.to_int (Timer.elapsed_ns t0));
  did

(* {1 Deletions} *)

let anc_desc_docs c did =
  let dg = (Doc_graph.of_collection c).Doc_graph.graph in
  let anc = Traversal.reachable_backward dg [ did ] in
  let desc = Traversal.reachable dg [ did ] in
  Ihs.remove anc did;
  Ihs.remove desc did;
  (dg, anc, desc)

let separates_with c did =
  let dg, anc, desc = anc_desc_docs c did in
  if Ihs.is_empty anc || Ihs.is_empty desc then (true, anc, desc)
  else begin
    (* reachability from all ancestors with the document removed: the
       document separates iff no descendant is reached *)
    let reached =
      Traversal.reachable_avoiding dg ~avoid:(fun d -> d = did) (Ihs.to_list anc)
    in
    let hit = ref false in
    Ihs.iter (fun d -> if Ihs.mem reached d then hit := true) desc;
    (not !hit, anc, desc)
  end

let separates c did =
  let s, _, _ = separates_with c did in
  s

(* Theorem 2: when [did] separates the document-level graph, it suffices to
   prune V_di ∪ V_D from the Lout labels of ancestor-document elements and
   V_di ∪ V_A from the Lin labels of descendant-document elements. *)
let delete_separating c cover did anc_docs desc_docs =
  let v_di = Ihs.create () in
  List.iter (fun e -> Ihs.add v_di e) (Collection.elements_of_doc c did);
  let elements_of_docs docs =
    let s = Ihs.create () in
    Ihs.iter
      (fun d -> List.iter (fun e -> Ihs.add s e) (Collection.elements_of_doc c d))
      docs;
    s
  in
  let va = elements_of_docs anc_docs in
  let vd = elements_of_docs desc_docs in
  let keep_out w = not (Ihs.mem v_di w || Ihs.mem vd w) in
  let keep_in w = not (Ihs.mem v_di w || Ihs.mem va w) in
  Ihs.iter
    (fun a -> Cover.set_lout cover a (Int_set.filter keep_out (Cover.lout cover a)))
    va;
  Ihs.iter
    (fun d -> Cover.set_lin cover d (Int_set.filter keep_in (Cover.lin cover d)))
    vd;
  Ihs.iter (fun v -> Cover.remove_node cover v) v_di

(* Theorem 3's partial recomputation.  [anc] and [desc] are the
   ancestors and descendants of the deleted part, taken on the graph
   before the deletion; [g] is the graph after it, where [removed] still
   names the deleted nodes (empty when only edges went).  The closure is
   recomputed from the surviving ancestors; the new partial cover L̂
   replaces their Lout labels and is unioned into everything else, while
   the surviving descendants drop Lin entries from [anc].  Returns the
   number of nodes recomputed. *)
let recompute_around g cover ~removed anc desc =
  let seeds = Ihs.fold (fun x acc -> if Ihs.mem removed x then acc else x :: acc) anc [] in
  let r = Traversal.reachable_avoiding g ~avoid:(Ihs.mem removed) seeds in
  let hat = cover_of_induced g r in
  (* overrides first, then the component-wise union with L̂ *)
  Ihs.iter
    (fun a -> if not (Ihs.mem removed a) then Cover.set_lout cover a Int_set.empty)
    anc;
  Ihs.iter
    (fun d ->
      if not (Ihs.mem removed d) then begin
        let keep w = not (Ihs.mem anc w) in
        Cover.set_lin cover d (Int_set.filter keep (Cover.lin cover d))
      end)
    desc;
  Cover.union_into ~dst:cover hat;
  Ihs.cardinal r

(* Theorem 3: general deletion of an arbitrary element set V_di, from its
   element-level ancestors A_di.  The theorem's proof only uses that V_di
   is the removed node set, so the same algorithm serves document deletion
   and subtree deletion (Section 6.3). *)
let delete_nodes_general c cover v_di =
  let g = Collection.element_graph c in
  let v_di_list = Ihs.to_list v_di in
  let a_di = Traversal.reachable_backward g v_di_list in
  let d_di = Traversal.reachable g v_di_list in
  let recomputed = recompute_around g cover ~removed:v_di a_di d_di in
  Ihs.iter (fun v -> Cover.remove_node cover v) v_di;
  recomputed

let delete_general c cover did =
  let v_di = Ihs.create () in
  List.iter (fun e -> Ihs.add v_di e) (Collection.elements_of_doc c did);
  delete_nodes_general c cover v_di

let delete_document c cover did =
  Counter.incr m_delete_documents;
  Trace.with_span "maint.delete_doc" @@ fun () ->
  let (sep, anc, desc), test_seconds = Timer.time (fun () -> separates_with c did) in
  Histogram.observe h_separation_test_ns (Timer.ns_of_s test_seconds);
  Counter.incr (if sep then m_delete_separating else m_delete_general);
  Log.info (fun m ->
      m "deleting document %s: %s path (test %.2fms)" (Collection.doc_name c did)
        (if sep then "separating/fast" else "general")
        (1000.0 *. test_seconds));
  let recomputed = ref 0 in
  let (), delete_seconds =
    Timer.time (fun () ->
        if sep then delete_separating c cover did anc desc
        else recomputed := delete_general c cover did;
        Collection.remove_document c did)
  in
  Histogram.observe h_delete_ns (Timer.ns_of_s delete_seconds);
  Counter.add m_recomputed_nodes !recomputed;
  Trace.add (if sep then "separating" else "general") 1;
  Trace.add "recomputed_nodes" !recomputed;
  { separating = sep; test_seconds; delete_seconds; recomputed_nodes = !recomputed }

let delete_link c cover u v =
  Counter.incr m_delete_links;
  let g = Collection.element_graph c in
  let a = Traversal.reachable_backward g [ u ] in
  let d = Traversal.reachable g [ v ] in
  Collection.remove_link c u v;
  ignore (recompute_around g cover ~removed:(Ihs.create ()) a d : int)

(* {1 Subtree-level updates and diff-based modification (Section 6.3)} *)

let insert_subtree c cover ~doc ~parent fragment =
  Counter.incr m_insert_subtrees;
  let created = Collection.add_subtree c ~doc ~parent fragment in
  List.iter (fun e -> Cover.add_node cover e) created;
  (* tree edges: each element hangs under an existing node, so the plain
     edge-insertion algorithm applies in creation (preorder) order *)
  let g = Collection.element_graph c in
  List.iter
    (fun e ->
      match (Collection.element_info c e).Collection.el_parent with
      | Some p -> insert_edge cover p e
      | None -> assert false)
    created;
  (* links resolved during grafting (from or into the new elements) *)
  let created_set = Ihs.create () in
  List.iter (fun e -> Ihs.add created_set e) created;
  List.iter
    (fun e ->
      Digraph.iter_succ g e (fun v ->
          let is_tree_child =
            (Collection.element_info c v).Collection.el_parent = Some e
          in
          if not is_tree_child then insert_edge cover e v);
      Digraph.iter_pred g e (fun u ->
          if not (Ihs.mem created_set u) then begin
            let is_tree_parent =
              (Collection.element_info c e).Collection.el_parent = Some u
            in
            if not is_tree_parent then insert_edge cover u e
          end))
    created;
  created

let delete_subtree c cover eid =
  Counter.incr m_delete_subtrees;
  (* [Collection.remove_subtree] rejects document roots, but it only runs
     after the cover surgery below — validate up front so a rejected
     deletion leaves the cover untouched *)
  if (Collection.element_info c eid).Collection.el_parent = None then
    invalid_arg "Collection.remove_subtree: cannot remove a document root";
  let removed = Collection.subtree_elements c eid in
  let v_di = Ihs.create () in
  List.iter (fun e -> Ihs.add v_di e) removed;
  (* fast path: if no path can leave the subtree (no outgoing non-tree
     edge), removing it cannot disconnect any surviving pair — dropping the
     nodes' labels suffices *)
  let g = Collection.element_graph c in
  let has_exit = ref false in
  Ihs.iter
    (fun e -> Digraph.iter_succ g e (fun v -> if not (Ihs.mem v_di v) then has_exit := true))
    v_di;
  let recomputed = if !has_exit then delete_nodes_general c cover v_di else 0 in
  if not !has_exit then Ihs.iter (fun v -> Cover.remove_node cover v) v_di;
  ignore (Collection.remove_subtree c eid);
  recomputed

(* Diff-driven modification: instead of dropping and re-inserting the whole
   document, align the old and new trees and apply subtree-level inserts
   and deletes (the X-Diff/XYDiff approach the paper sketches).  Children
   are matched by id attribute when present, otherwise by tag and position
   among same-tag siblings; matched elements whose link-relevant attributes
   changed are replaced wholesale. *)

type diff_stats = {
  subtrees_deleted : int;
  subtrees_inserted : int;
  fell_back : bool;  (** root mismatch: full delete + reinsert was used *)
}

let link_relevant_attrs attrs =
  List.filter
    (fun (k, _) ->
      match k with
      | "xlink:href" | "href" | "idref" | "idrefs" | "id" -> true
      | _ -> false)
    attrs

let match_key ~id_attr ~tag ~same_tag_index =
  match id_attr with
  | Some id -> `Id (tag, id)
  | None -> `Pos (tag, same_tag_index)

let keys_of_list tag_of id_of l =
  let seen = Hashtbl.create 8 in
  List.map
    (fun x ->
      let tag = tag_of x in
      let idx = Option.value ~default:0 (Hashtbl.find_opt seen tag) in
      Hashtbl.replace seen tag (idx + 1);
      (match_key ~id_attr:(id_of x) ~tag ~same_tag_index:idx, x))
    l

let modify_document_diff c cover did (new_root : Hopi_xml.Xml_tree.t) =
  let old_root = Collection.doc_root_element c did in
  if Collection.tag_of c old_root <> new_root.Hopi_xml.Xml_tree.tag then begin
    (* structural rewrite of the root: fall back to delete + reinsert *)
    let name = Collection.doc_name c did in
    ignore (delete_document c cover did);
    let did' = insert_document c cover ~name new_root in
    { subtrees_deleted = 0; subtrees_inserted = 0; fell_back = did' >= 0 }
  end
  else begin
    let deleted = ref 0 and inserted = ref 0 in
    (* collect operations by aligning the trees; deletions are applied
       immediately (they never invalidate other element ids), insertions
       are deferred so they see the final surroundings *)
    let pending_inserts = ref [] in
    let rec align old_el (nw : Hopi_xml.Xml_tree.t) =
      let old_children =
        keys_of_list
          (fun e -> Collection.tag_of c e)
          (fun e -> List.assoc_opt "id" (Collection.attrs_of c e))
          (Collection.children c old_el)
      in
      let new_children =
        keys_of_list
          (fun (x : Hopi_xml.Xml_tree.t) -> x.Hopi_xml.Xml_tree.tag)
          (fun x -> Hopi_xml.Xml_tree.attr x "id")
          (List.filter_map
             (function Hopi_xml.Xml_tree.Element x -> Some x | Hopi_xml.Xml_tree.Text _ -> None)
             nw.Hopi_xml.Xml_tree.children)
      in
      let new_tbl = Hashtbl.create 8 in
      List.iter (fun (k, x) -> Hashtbl.replace new_tbl k x) new_children;
      let matched_new = Hashtbl.create 8 in
      (* old children: matched -> recurse or replace; unmatched -> delete *)
      List.iter
        (fun (k, old_child) ->
          match Hashtbl.find_opt new_tbl k with
          | Some new_child when not (Hashtbl.mem matched_new k) ->
            Hashtbl.replace matched_new k ();
            let old_links = link_relevant_attrs (Collection.attrs_of c old_child) in
            let new_links = link_relevant_attrs new_child.Hopi_xml.Xml_tree.attrs in
            if List.sort compare old_links = List.sort compare new_links then
              align old_child new_child
            else begin
              (* link structure changed: replace the subtree *)
              incr deleted;
              incr inserted;
              ignore (delete_subtree c cover old_child);
              pending_inserts := (old_el, new_child) :: !pending_inserts
            end
          | _ ->
            incr deleted;
            ignore (delete_subtree c cover old_child))
        old_children;
      (* new children without a match -> insert *)
      List.iter
        (fun (k, new_child) ->
          if not (Hashtbl.mem matched_new k) && List.mem_assoc k old_children = false
          then begin
            incr inserted;
            pending_inserts := (old_el, new_child) :: !pending_inserts
          end)
        new_children
    in
    align old_root new_root;
    List.iter
      (fun (parent, fragment) -> ignore (insert_subtree c cover ~doc:did ~parent fragment))
      (List.rev !pending_inserts);
    { subtrees_deleted = !deleted; subtrees_inserted = !inserted; fell_back = false }
  end
