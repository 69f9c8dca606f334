(* K-shard scatter-gather routing tests: Hopi_serve.Router.

   The load-bearing one is the qcheck differential: random collections
   split at K ∈ 1..4 (plain and distance-aware) must answer every
   reach/dist/desc/anc query byte-identically to the unsharded oracle —
   the reflexive-transitive closure (and all-pairs BFS distances) of the
   whole element graph, i.e. exactly what one Cover_store over the whole
   collection serves.  Cross-shard pairs go through the PSG closure the
   router derives at open; the differential covers that path by
   construction (DBLP citations cross documents, documents are spread
   over shards). *)

module Router = Hopi_serve.Router
module Batch = Hopi_serve.Batch
module Collection = Hopi_collection.Collection
module Closure = Hopi_graph.Closure
module Traversal = Hopi_graph.Traversal
module Dblp = Hopi_workload.Dblp_gen
module Splitmix = Hopi_util.Splitmix
module Ihs = Hopi_util.Int_hashset
module Int_set = Hopi_util.Int_set
module Gen = QCheck2.Gen
module Registry = Hopi_obs.Registry
module Counter = Hopi_obs.Counter

(* the routed queries, as the scatter-gather engine binds them; a result
   set is what the engine's callback yields, as many nodes as the count
   it answers *)
let min_distance r = (Router.engine r).Batch.min_distance

let routed_set (count : ?f:(int -> unit) -> int -> int) u =
  let s = Ihs.create () in
  let n = count ~f:(Ihs.add s) u in
  if n <> Ihs.cardinal s then Alcotest.failf "node %d: count %d, %d nodes" u n (Ihs.cardinal s);
  s

let descendants r = routed_set (Router.engine r).Batch.descendants
let ancestors r = routed_set (Router.engine r).Batch.ancestors

(* the file layout of a shard directory after a first split (generation 0) *)
let shard_path ~dir k = Filename.concat dir (Printf.sprintf "shard-%03d.db" k)
let routing_path ~dir = Filename.concat dir "routing.idx"

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let with_temp_dir f =
  let dir = Filename.temp_file "hopi_shard" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun name ->
            try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Sys.rmdir dir with Sys_error _ -> ()
      end)
    (fun () -> f dir)

let elements c =
  let acc = ref [] in
  Collection.iter_elements c (fun e -> acc := e :: !acc);
  Array.of_list (List.sort compare !acc)

let sorted_of_ihs s = List.sort compare (Ihs.to_list s)

(* every node an iterator yields, sorted: equal to a sorted set only when
   each node is yielded once *)
let yielded iter u =
  let acc = ref [] in
  iter u (fun w -> acc := w :: !acc);
  List.sort compare !acc

(* {1 Deterministic shape checks} *)

(* a shard that fails to open must not leak the shards opened before it *)
let test_failed_open_closes_shards () =
  if not (Sys.file_exists "/proc/self/fd") then Alcotest.skip ();
  with_temp_dir @@ fun dir ->
  let c = Dblp.generate (Dblp.default ~n_docs:9) in
  ignore (Router.split ~k:3 ~dir c);
  (* flip a catalog byte of the last shard *)
  let shard = shard_path ~dir 2 in
  let off = Hopi_storage.Page.payload_off + 1 in
  let ic = open_in_bin shard in
  seek_in ic off;
  let b = input_char ic in
  close_in ic;
  let oc = open_out_gen [ Open_wronly; Open_binary ] 0 shard in
  seek_out oc off;
  output_char oc (Char.chr (Char.code b lxor 0x42));
  close_out oc;
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let before = open_fds () in
  (match Router.open_dir dir with
  | r ->
    Router.close r;
    Alcotest.fail "a corrupt shard catalog went unnoticed"
  | exception Hopi_storage.Storage_error.Storage_error _ -> ());
  checki "no shard file left open" before (open_fds ())

let test_split_layout () =
  with_temp_dir @@ fun dir ->
  let c = Dblp.generate (Dblp.default ~n_docs:9) in
  let st = Router.split ~k:3 ~dir c in
  checki "k shards" 3 st.Router.shards;
  checki "every element assigned" (Collection.n_elements c) st.Router.elements;
  (* a first split writes generation 0: the shards under their plain names *)
  check
    Alcotest.(list string)
    "the directory holds the shards and the routing index"
    [ "routing.idx"; "shard-000.db"; "shard-001.db"; "shard-002.db" ]
    (List.sort compare (Array.to_list (Sys.readdir dir)));
  let rt = Router.read_routing (routing_path ~dir) in
  checki "routing generation" 0 rt.Router.gen;
  checki "routing shard count" 3 rt.Router.n_shards;
  checki "routing links" st.Router.cross_links (List.length rt.Router.links);
  let r = Router.open_dir dir in
  Fun.protect ~finally:(fun () -> Router.close r) @@ fun () ->
  checki "n_shards round-trips" 3 (Router.n_shards r);
  checkb "plain split" false (Router.with_dist r);
  checki "n_nodes round-trips" st.Router.elements (Router.n_nodes r);
  checki "n_entries round-trips" st.Router.entries (Router.n_entries r);
  let dom = elements c in
  Array.iter
    (fun e ->
      match Router.shard_of r e with
      | Some s -> checkb "shard id in range" true (s >= 0 && s < 3)
      | None -> Alcotest.failf "element %d lost its shard" e)
    dom;
  check
    Alcotest.(option int)
    "unknown id has no shard" None
    (Router.shard_of r (Array.fold_left max 0 dom + 17))

let test_split_clamps_k () =
  with_temp_dir @@ fun dir ->
  let c = Dblp.generate (Dblp.default ~n_docs:2) in
  let st = Router.split ~k:8 ~dir c in
  checki "k clamped to the document count" 2 st.Router.shards;
  let r = Router.open_dir dir in
  Fun.protect ~finally:(fun () -> Router.close r) @@ fun () ->
  checki "opened with the clamped count" 2 (Router.n_shards r)

let test_unknown_ids_mirror_store () =
  with_temp_dir @@ fun dir ->
  let c = Dblp.generate (Dblp.default ~n_docs:4) in
  ignore (Router.split ~k:2 ~dir c : Router.split_stats);
  let r = Router.open_dir dir in
  Fun.protect ~finally:(fun () -> Router.close r) @@ fun () ->
  let dom = elements c in
  let ghost = Array.fold_left max 0 dom + 23 in
  checkb "ghost -> known unreachable" false (Router.connected r ghost dom.(0));
  checkb "known -> ghost unreachable" false (Router.connected r dom.(0) ghost);
  checkb "ghost not self-reachable" false (Router.connected r ghost ghost);
  check Alcotest.(option int) "ghost distance" None (min_distance r ghost dom.(0));
  checkb "ghost descendants empty" true (Ihs.is_empty (descendants r ghost));
  checkb "ghost ancestors empty" true (Ihs.is_empty (ancestors r ghost))

(* The Batch engine over the router renders exactly like direct calls. *)
let test_engine_rendering () =
  with_temp_dir @@ fun dir ->
  let c = Dblp.generate (Dblp.default ~n_docs:6) in
  ignore (Router.split ~dist:true ~k:3 ~dir c : Router.split_stats);
  let r = Router.open_dir dir in
  Fun.protect ~finally:(fun () -> Router.close r) @@ fun () ->
  let eng = Router.engine r in
  let dom = elements c in
  Array.iter
    (fun u ->
      let v = dom.(0) in
      check Alcotest.string "reach renders"
        (string_of_bool (Router.connected r u v))
        (Batch.render (Batch.eval_engine eng (Batch.Reach (u, v))));
      check Alcotest.string "dist renders"
        (match min_distance r u v with
        | Some d -> string_of_int d
        | None -> "unreachable")
        (Batch.render (Batch.eval_engine eng (Batch.Dist (u, v))));
      check Alcotest.string "desc renders"
        (string_of_int (Ihs.cardinal (descendants r u)))
        (Batch.render (Batch.eval_engine eng (Batch.Desc u)));
      check Alcotest.string "path needs an evaluator"
        "error: path queries need a corpus (serve --corpus DIR)"
        (Batch.render (Batch.eval_engine eng (Batch.Path "//a"))))
    (Array.sub dom 0 (min 8 (Array.length dom)))

(* A same-shard dist on distance-aware shards still probes its shard's
   cross-link targets (a path through other shards may be shorter), so it
   counts as a scatter, not as a single-shard answer. *)
let test_same_shard_dist_is_scatter () =
  with_temp_dir @@ fun dir ->
  let c = Dblp.generate (Dblp.default ~n_docs:6) in
  ignore (Router.split ~dist:true ~k:3 ~dir c : Router.split_stats);
  let tg =
    match (Router.read_routing (routing_path ~dir)).Router.links with
    | (_, tg) :: _ -> tg
    | [] -> Alcotest.fail "no cross link"
  in
  let r = Router.open_dir dir in
  Fun.protect ~finally:(fun () -> Router.close r) @@ fun () ->
  let scatter = Registry.counter "hopi_router_scatter_total"
  and single = Registry.counter "hopi_router_single_shard_total" in
  let s0 = Counter.get scatter and g0 = Counter.get single in
  check Alcotest.(option int) "self distance" (Some 0) (min_distance r tg tg);
  checki "counted as a scatter" (s0 + 1) (Counter.get scatter);
  checki "not as single-shard" g0 (Counter.get single)

(* {1 Hand-built routes}

   Two documents that land on different shards at k = 2 (the heavier
   one, a.xml, on shard 0):

     a.xml:  a ─ x ──link──▶ i ─ o ──link──▶ y   (y deep under w)
             └── w ──link──▶ i    w ─ c1 ─ c2 ─ c3 ─ y
     b.xml:  b ─ i ─ o

   [x] is itself a link source and a leaf of its shard, [i] itself a
   link target; [x ⇝ y] exists only through b.xml, and [w ⇝ y] is 4 steps
   inside a.xml but 3 through b.xml. *)
let two_doc_collection () =
  let parse = Hopi_xml.Xml_parser.parse_string_exn in
  let c = Collection.create () in
  ignore
    (Collection.add_document c ~name:"a.xml"
       (parse
          {|<a><x xlink:href="b.xml#in"/><w xlink:href="b.xml#in"><c1><c2><c3><y id="back"/></c3></c2></c1></w></a>|})
      : int);
  ignore
    (Collection.add_document c ~name:"b.xml"
       (parse {|<b><i id="in"><o xlink:href="a.xml#back"/></i></b>|})
      : int);
  let el tag =
    match Collection.elements_with_tag c tag with
    | [ e ] -> e
    | _ -> Alcotest.failf "no single <%s>" tag
  in
  (c, el)

let with_two_doc_split ~dist f =
  with_temp_dir @@ fun dir ->
  let c, el = two_doc_collection () in
  let st = Router.split ~dist ~k:2 ~dir c in
  checki "two shards" 2 st.Router.shards;
  let r = Router.open_dir dir in
  Fun.protect ~finally:(fun () -> Router.close r) @@ fun () ->
  checkb "x and i on different shards" true (Router.shard_of r (el "x") <> Router.shard_of r (el "i"));
  checkb "x and y on one shard" true (Router.shard_of r (el "x") = Router.shard_of r (el "y"));
  f r el

let dist_opt = Alcotest.(option int)

(* u a link source and v a link target: the only centers joining them
   are u and v themselves *)
let test_self_centers () =
  List.iter
    (fun dist ->
      with_two_doc_split ~dist @@ fun r el ->
      let d n = if dist then Some n else Some 0 in
      checkb "source -> target" true (Router.connected r (el "x") (el "i"));
      check dist_opt "source -> target distance" (d 1) (min_distance r (el "x") (el "i"));
      checkb "source -> below the target" true (Router.connected r (el "x") (el "o"));
      check dist_opt "source -> below the target distance" (d 2)
        (min_distance r (el "x") (el "o"));
      checkb "above the source -> target" true (Router.connected r (el "a") (el "i"));
      check dist_opt "above the source -> target distance" (d 2)
        (min_distance r (el "a") (el "i"));
      checkb "target -/-> source" false (Router.connected r (el "i") (el "x"));
      check dist_opt "target -/-> source distance" None (min_distance r (el "i") (el "x"));
      check
        Alcotest.(list int)
        "desc of the source"
        (List.sort compare [ el "x"; el "i"; el "o"; el "y" ])
        (sorted_of_ihs (descendants r (el "x")));
      check
        Alcotest.(list int)
        "anc of the target"
        (List.sort compare [ el "i"; el "b"; el "x"; el "w"; el "a" ])
        (sorted_of_ihs (ancestors r (el "i"))))
    [ false; true ]

(* same-shard pairs whose (shortest) path leaves the shard and comes back *)
let test_leave_and_return () =
  with_two_doc_split ~dist:true @@ fun r el ->
  checkb "x reaches y only through b.xml" true (Router.connected r (el "x") (el "y"));
  check dist_opt "x -> y" (Some 3) (min_distance r (el "x") (el "y"));
  check dist_opt "w -> y: 3 across, not 4 within" (Some 3) (min_distance r (el "w") (el "y"));
  check dist_opt "a -> y" (Some 4) (min_distance r (el "a") (el "y"));
  check dist_opt "c1 -> y stays within" (Some 3) (min_distance r (el "c1") (el "y"));
  check dist_opt "y -/-> x" None (min_distance r (el "y") (el "x"));
  checkb "y -/-> x" false (Router.connected r (el "y") (el "x"))

(* {1 The routing index is validated at open}

   A routing index is checksummed, so an inconsistent one is built by
   pairing one split's routing.idx with another split's shards.  Element
   ids run in document order, one per element. *)

let split_docs ~k dir docs =
  let c = Collection.create () in
  List.iteri
    (fun i xml ->
      ignore
        (Collection.add_document c ~name:(Printf.sprintf "d%d.xml" i)
           (Hopi_xml.Xml_parser.parse_string_exn xml)
          : int))
    docs;
  ignore (Router.split ~k ~dir c : Router.split_stats);
  (* each split on its own is sound *)
  Router.close (Router.open_dir dir)

let copy_file src dst =
  let data = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> output_string oc data)

(* a split of two documents with the one cross link [link]: d0 holds
   elements 0 and 1, d1 elements 2 and 3 *)
let with_link_routing docs link f =
  with_temp_dir @@ fun links_dir ->
  split_docs ~k:2 links_dir docs;
  check
    Alcotest.(list (pair int int))
    "the routing index's links" [ link ]
    (Router.read_routing (routing_path ~dir:links_dir)).Router.links;
  with_temp_dir @@ fun dir -> f ~routing:(routing_path ~dir:links_dir) dir

let link_out = ([ {|<a><x xlink:href="d1.xml#r"/></a>|}; {|<b><y id="r"/></b>|} ], (1, 3))
let link_back = ([ {|<a><y id="r"/></a>|}; {|<b><x xlink:href="d0.xml#r"/></b>|} ], (3, 1))

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* open must fail with a [Sys_error] that names the fault *)
let expect_rejected what ~says dir =
  match Router.open_dir dir with
  | r ->
    Router.close r;
    Alcotest.failf "%s went unnoticed" what
  | exception Sys_error msg ->
    if not (contains msg says) then Alcotest.failf "%s: %S does not say %S" what msg says

(* shards registering elements 0 and 1 only, under a link to element 3
   and under a link from it *)
let test_unregistered_link_rejected () =
  List.iter
    (fun (what, (docs, link)) ->
      with_link_routing docs link @@ fun ~routing dir ->
      split_docs ~k:2 dir [ {|<a/>|}; {|<b/>|} ];
      copy_file routing (routing_path ~dir);
      expect_rejected what ~says:"link endpoint 3 is in no shard" dir)
    [ ("a link to an unknown element", link_out); ("a link from an unknown element", link_back) ]

(* shards holding elements 0..3 in shard 0 *)
let test_same_shard_link_rejected () =
  let docs, link = link_out in
  with_link_routing docs link @@ fun ~routing dir ->
  split_docs ~k:2 dir [ {|<a><x/><y/><z/></a>|}; {|<b/>|} ];
  copy_file routing (routing_path ~dir);
  expect_rejected "a link inside one shard" ~says:"link 1 -> 3 stays inside shard 0" dir

(* two shards that register the same elements, under a routing index with
   no links that could notice the elements the overwritten shard lost *)
let test_element_in_two_shards_rejected () =
  with_temp_dir @@ fun dir ->
  split_docs ~k:2 dir [ {|<a/>|}; {|<b/>|} ];
  checki "no links" 0 (List.length (Router.read_routing (routing_path ~dir)).Router.links);
  copy_file (shard_path ~dir 0) (shard_path ~dir 1);
  expect_rejected "an element in two shards" ~says:"registered in shards 0 and 1" dir

module E = Hopi_storage.Storage_error

(* the text routing index of older versions: a storage error whose hint
   asks for a re-split, and the re-split moves off the old shard names *)
let test_text_routing_rejected () =
  with_temp_dir @@ fun dir ->
  let c = Dblp.generate (Dblp.default ~n_docs:6) in
  ignore (Router.split ~k:2 ~dir c : Router.split_stats);
  Out_channel.with_open_bin (routing_path ~dir) (fun oc ->
      output_string oc "hopi-shard-routing 2\nshards 2\ndist 0\nlinks 0\nend\ncrc 3a6d5bd8\n");
  (match Router.open_dir dir with
  | r ->
    Router.close r;
    Alcotest.fail "a text routing index went unnoticed"
  | exception E.Storage_error e -> (
    match E.hint e with
    | Some h when contains h "shard-split" -> ()
    | _ -> Alcotest.failf "%s: no hint to re-run shard-split" (E.to_string e)));
  let st = Router.split ~k:2 ~dir c in
  check
    Alcotest.(list string)
    "a re-split writes generation 1 and deletes generation 0"
    [ "routing.idx"; "shard-000.db.gen1"; "shard-001.db.gen1" ]
    (List.sort compare (Array.to_list (Sys.readdir dir)));
  let r = Router.open_dir dir in
  Fun.protect ~finally:(fun () -> Router.close r) @@ fun () ->
  checki "the re-split serves" st.Router.elements (Router.n_nodes r)

(* a re-split deletes the other generations' shard stores and their
   temporary leftovers, and no other file *)
let test_resplit_keeps_foreign_files () =
  with_temp_dir @@ fun dir ->
  let c = Dblp.generate (Dblp.default ~n_docs:6) in
  ignore (Router.split ~k:2 ~dir c : Router.split_stats);
  copy_file (shard_path ~dir 0) (Filename.concat dir "shard-000.db.bak");
  List.iter
    (fun name -> Out_channel.with_open_bin (Filename.concat dir name) ignore)
    [ "shard-notes.txt"; "shard-005.db.gen3.tmp"; "shard-001.db.tmp" ];
  ignore (Router.split ~k:2 ~dir c : Router.split_stats);
  check
    Alcotest.(list string)
    "generation 0 and the leftovers go, the rest stays"
    [ "routing.idx"; "shard-000.db.bak"; "shard-000.db.gen1"; "shard-001.db.gen1"; "shard-notes.txt" ]
    (List.sort compare (Array.to_list (Sys.readdir dir)))

(* {1 Isolated elements}

   Single-element documents, some of them link endpoints and some with no
   edge at all: the element map comes from the shards' node registries,
   so every element, isolated or not, must be known, and every answer
   must match one unsharded Cover_store over the whole collection. *)
let isolated_collection () =
  let c = Collection.create () in
  List.iteri
    (fun i xml ->
      ignore
        (Collection.add_document c ~name:(Printf.sprintf "d%d.xml" i)
           (Hopi_xml.Xml_parser.parse_string_exn xml)
          : int))
    [
      {|<a xlink:href="d1.xml#r"/>|};
      {|<b id="r" xlink:href="d2.xml#s"/>|};
      {|<c id="s"/>|};
      {|<d/>|};
      {|<e xlink:href="d2.xml#s"/>|};
      {|<f/>|};
      {|<g id="t"/>|};
      {|<h xlink:href="d6.xml#t"/>|};
    ];
  c

(* [f dir r snap what] on [c] split at [k] under [dir] and opened as [r],
   beside [snap], one unsharded Cover_store over the whole collection *)
let with_split_and_whole ~dist ~k c f =
  let module S = Hopi_storage in
  let g = Collection.element_graph c in
  with_temp_dir @@ fun tmp ->
  let whole = Filename.concat tmp "whole.db" in
  let pager = S.Pager.create ~fsync:false (S.Pager.File whole) in
  S.Cover_store.save
    (S.Cover_store.of_cover pager
       (if dist then fst (Hopi_twohop.Dist_builder.build g)
        else fst (Hopi_twohop.Builder.build (Closure.compute g))));
  S.Pager.close pager;
  let dir = Filename.concat tmp "shards" in
  let st = Router.split ~dist ~k ~dir c in
  checki "k shards" k st.Router.shards;
  checkb "some link crosses shards" true (st.Router.cross_links > 0);
  let r = Router.open_dir dir in
  let snap = Hopi_serve.Snapshot.open_file ~cache_mb:0 whole in
  Fun.protect
    ~finally:(fun () ->
      Router.close r;
      Hopi_serve.Snapshot.close snap)
  @@ fun () -> f dir r snap

(* desc and anc of every node of [dom], and reach and dist over all pairs
   of [ids], answer as the unsharded store does *)
let check_like_store what r snap ~dom ~ids =
  let module Snapshot = Hopi_serve.Snapshot in
  Array.iter
    (fun u ->
      check Alcotest.(list int) (what ("desc " ^ string_of_int u))
        (yielded (Snapshot.iter_desc snap) u)
        (sorted_of_ihs (descendants r u));
      check Alcotest.(list int) (what ("anc " ^ string_of_int u))
        (yielded (Snapshot.iter_anc snap) u)
        (sorted_of_ihs (ancestors r u)))
    dom;
  Array.iter
    (fun u ->
      Array.iter
        (fun v ->
          let pair = Printf.sprintf " %d %d" u v in
          checkb (what ("reach" ^ pair)) (Snapshot.connected snap u v) (Router.connected r u v);
          check dist_opt (what ("dist" ^ pair)) (Snapshot.min_distance snap u v) (min_distance r u v))
        ids)
    ids

let test_isolated_elements () =
  let c = isolated_collection () in
  let dom = elements c in
  let ghost = Array.fold_left max 0 dom + 5 in
  checki "one element per document" 8 (Array.length dom);
  List.iter
    (fun (dist, k) ->
      with_split_and_whole ~dist ~k c @@ fun _ r snap ->
      let what s = Printf.sprintf "dist=%b k=%d: %s" dist k s in
      checki (what "every element mapped") (Array.length dom) (Router.n_nodes r);
      Array.iter
        (fun u -> checkb (what (Printf.sprintf "%d has a shard" u)) true (Router.shard_of r u <> None))
        dom;
      check_like_store what r snap ~dom ~ids:(Array.append dom [| ghost |]))
    [ (false, 2); (false, 3); (true, 2); (true, 3) ]

(* {1 An element that is a link source and a link target}

   [e] in a.xml links to [f] in b.xml and is itself the target of a link.
   On the cycle, the link into [e] comes from below [f] through c.xml, so
   the PSG leads from [e] back to [e]; off it, c.xml links into [e] and
   b.xml links on into c.xml, and no PSG path returns.  a.xml is the
   heaviest document: at k = 3 every document has a shard of its own, at
   k = 2 b.xml and c.xml share one.  The within edge [f ⇝ g] (2 steps)
   is the heaviest PSG edge at k = 3, so a search that settles [f] queues
   [g] one full turn of the bucket queue ahead. *)
let source_and_target ~cycle =
  let c = Collection.create () in
  List.iter
    (fun (name, xml) ->
      ignore (Collection.add_document c ~name (Hopi_xml.Xml_parser.parse_string_exn xml) : int))
    (if cycle then
       [
         ("a.xml", {|<a><p><e id="e" xlink:href="b.xml#f"/></p><q/><r/></a>|});
         ("b.xml", {|<b><f id="f"><m><g xlink:href="c.xml#h"/></m></f></b>|});
         ("c.xml", {|<c><h id="h"><i xlink:href="a.xml#e"/></h></c>|});
       ]
     else
       [
         ("a.xml", {|<a><p><e id="e" xlink:href="b.xml#f"/></p><q/><r/></a>|});
         ("b.xml", {|<b><f id="f"><m><g xlink:href="c.xml#j"/></m></f></b>|});
         ("c.xml", {|<c><h xlink:href="a.xml#e"/><j id="j"/></c>|});
       ]);
  c

(* Every answer equals the unsharded store's, and the exit and entry rows
   number what a per-source shortest-path search over the PSG gave
   (recorded from it): [e]'s self row is there exactly on the cycle. *)
let test_source_and_target () =
  let rows = Registry.gauge "hopi_router_exit_rows" in
  List.iter
    (fun (cycle, dist, k, want_rows) ->
      let c = source_and_target ~cycle in
      let e = match Collection.elements_with_tag c "e" with [ e ] -> e | _ -> Alcotest.fail "no <e>" in
      let dom = elements c in
      with_split_and_whole ~dist ~k c @@ fun dir r snap ->
      let what s = Printf.sprintf "cycle=%b dist=%b k=%d: %s" cycle dist k s in
      let links = (Router.read_routing (routing_path ~dir)).Router.links in
      checkb (what "e is a link source") true (List.exists (fun (u, _) -> u = e) links);
      checkb (what "e is a link target") true (List.exists (fun (_, v) -> v = e) links);
      checki (what "exit rows") want_rows (Hopi_obs.Gauge.get rows);
      check_like_store what r snap ~dom ~ids:dom)
    [
      (true, false, 2, 13); (true, false, 3, 21); (true, true, 2, 13); (true, true, 3, 21);
      (false, false, 2, 9); (false, false, 3, 15); (false, true, 2, 9); (false, true, 3, 15);
    ]

(* {1 A larger deterministic differential}

   60 DBLP documents at k = 4, plain and distance-aware: 4,000 seeded
   reach/dist pairs and the desc/anc sets of 50 elements against the
   closure and per-source BFS of the whole element graph. *)
let test_dblp60_differential () =
  let c = Dblp.generate (Dblp.default ~n_docs:60) in
  let g = Collection.element_graph c in
  let clo = Closure.compute g in
  let bfs = Hashtbl.create 1024 in
  let bfs_dist u v =
    let d =
      match Hashtbl.find_opt bfs u with
      | Some d -> d
      | None ->
        let d = Hopi_graph.Traversal.bfs_distances g u in
        Hashtbl.replace bfs u d;
        d
    in
    Hashtbl.find_opt d v
  in
  let dom = elements c in
  let n = Array.length dom in
  List.iter
    (fun dist ->
      with_temp_dir @@ fun dir ->
      ignore (Router.split ~dist ~k:4 ~dir c : Router.split_stats);
      let r = Router.open_dir ~cache_mb:4 dir in
      Fun.protect ~finally:(fun () -> Router.close r) @@ fun () ->
      let rng = Splitmix.create 4242 in
      let crossing = ref 0 in
      for _ = 1 to 4000 do
        let u = dom.(Splitmix.int rng n) and v = dom.(Splitmix.int rng n) in
        if Router.shard_of r u <> Router.shard_of r v then incr crossing;
        let want = Closure.mem clo u v in
        if Router.connected r u v <> want then
          Alcotest.failf "dist=%b: reach %d -> %d should be %b" dist u v want;
        let want_dist = if not want then None else if dist then bfs_dist u v else Some 0 in
        check dist_opt
          (Printf.sprintf "dist=%b: dist %d -> %d" dist u v)
          want_dist (min_distance r u v)
      done;
      checkb "most sampled pairs cross shards" true (!crossing > 2000);
      for i = 0 to 49 do
        let u = dom.(i * n / 50) in
        check
          Alcotest.(list int)
          (Printf.sprintf "dist=%b: desc %d" dist u)
          (Int_set.to_list (Closure.succs clo u))
          (sorted_of_ihs (descendants r u));
        check
          Alcotest.(list int)
          (Printf.sprintf "dist=%b: anc %d" dist u)
          (Int_set.to_list (Closure.preds clo u))
          (sorted_of_ihs (ancestors r u))
      done)
    [ false; true ]

(* {1 The differential}

   Oracle: closure + all-pairs BFS of the whole element graph.  A plain
   unsharded Cover_store answers [connected] by closure membership and
   [min_distance] as [Some 0] for reachable pairs; a distance-aware one
   answers true shortest distances.  The router must match for any K. *)

let gen_case =
  let open Gen in
  int_range 4 14 >>= fun n_docs ->
  int_range 0 1_000_000 >>= fun seed ->
  float_range 1.0 6.0 >>= fun avg_citations ->
  float_range 0.0 0.3 >>= fun forward_fraction ->
  int_range 1 4 >>= fun k ->
  bool >|= fun dist ->
  ({ (Dblp.default ~n_docs) with seed; avg_citations; forward_fraction }, k, dist)

let prop_differential =
  QCheck2.Test.make ~name:"K-shard routing = unsharded oracle" ~count:8 gen_case
    (fun (cfg, k, dist) ->
      with_temp_dir @@ fun dir ->
      let c = Dblp.generate cfg in
      ignore (Router.split ~dist ~k ~dir c : Router.split_stats);
      let r = Router.open_dir ~cache_mb:4 dir in
      Fun.protect ~finally:(fun () -> Router.close r) @@ fun () ->
      let g = Collection.element_graph c in
      let clo = Closure.compute g in
      (* BFS distances from each source, on first use *)
      let bfs = Hashtbl.create 64 in
      let bfs_dist u v =
        let from_u =
          match Hashtbl.find_opt bfs u with
          | Some d -> d
          | None ->
            let d = Traversal.bfs_distances g u in
            Hashtbl.replace bfs u d;
            d
        in
        Hashtbl.find_opt from_u v
      in
      let dom = elements c in
      let n = Array.length dom in
      let ghost = Array.fold_left max 0 dom + 31 in
      let check_pair u v =
        let want_reach = u <> ghost && v <> ghost && Closure.mem clo u v in
        if Router.connected r u v <> want_reach then
          QCheck2.Test.fail_reportf "k=%d dist=%b: reach %d -> %d should be %b"
            k dist u v want_reach;
        let want_dist =
          if not want_reach then None
          else if dist then bfs_dist u v
          else Some 0
        in
        let got_dist = min_distance r u v in
        if got_dist <> want_dist then
          QCheck2.Test.fail_reportf
            "k=%d dist=%b: dist %d -> %d is %s, oracle says %s" k dist u v
            (match got_dist with Some d -> string_of_int d | None -> "unreachable")
            (match want_dist with Some d -> string_of_int d | None -> "unreachable")
      in
      (* all pairs on small domains, a seeded sample on large ones *)
      if n <= 70 then
        Array.iter (fun u -> Array.iter (fun v -> check_pair u v) dom) dom
      else begin
        let rng = Splitmix.create (cfg.Dblp.seed + (k * 131)) in
        for _ = 1 to 4000 do
          check_pair dom.(Splitmix.int rng n) dom.(Splitmix.int rng n)
        done
      end;
      Array.iter (fun u -> check_pair u ghost) (Array.sub dom 0 (min 5 n));
      check_pair ghost dom.(0);
      check_pair ghost ghost;
      (* full descendant/ancestor sets, element by element *)
      Array.iter
        (fun u ->
          let want_desc = Int_set.to_list (Closure.succs clo u) in
          let got_desc = sorted_of_ihs (descendants r u) in
          if got_desc <> want_desc then
            QCheck2.Test.fail_reportf
              "k=%d dist=%b: desc %d has %d members, oracle %d" k dist u
              (List.length got_desc) (List.length want_desc);
          let want_anc = Int_set.to_list (Closure.preds clo u) in
          let got_anc = sorted_of_ihs (ancestors r u) in
          if got_anc <> want_anc then
            QCheck2.Test.fail_reportf
              "k=%d dist=%b: anc %d has %d members, oracle %d" k dist u
              (List.length got_anc) (List.length want_anc))
        dom;
      true)

(* Reopening the directory serves identical answers: the routing index
   and shard stores round-trip through disk, nothing lives only in the
   splitting process's memory. *)
let prop_reopen_stable =
  QCheck2.Test.make ~name:"shard dir round-trips through disk" ~count:4
    Gen.(pair (int_range 0 1_000_000) (int_range 1 3))
    (fun (seed, k) ->
      with_temp_dir @@ fun dir ->
      let c = Dblp.generate { (Dblp.default ~n_docs:6) with seed } in
      ignore (Router.split ~dist:true ~k ~dir c : Router.split_stats);
      let dom = elements c in
      let sample r =
        Array.map
          (fun u ->
            ( min_distance r u dom.(0),
              Ihs.cardinal (descendants r u) ))
          dom
      in
      let r1 = Router.open_dir dir in
      let s1 = sample r1 in
      Router.close r1;
      let r2 = Router.open_dir dir in
      let s2 = sample r2 in
      Router.close r2;
      if s1 <> s2 then QCheck2.Test.fail_report "answers changed across reopen";
      true)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* {1 The routing index on a fault-injecting VFS} *)

module Fv = Hopi_fault_vfs.Fault_vfs
module Vfs = Hopi_storage.Vfs
module Page = Hopi_storage.Page

(* every payload byte of routing.idx is under its page's checksum: a flip
   anywhere is rejected as a checksum error before any shard is opened.
   [clean] sees the split as written, [flipped] each copy of it with one
   payload byte flipped. *)
let with_routing_flips ~clean ~flipped =
  with_temp_dir @@ fun dir ->
  let fv = Fv.create () in
  let vfs = Fv.vfs fv in
  let c = Dblp.generate (Dblp.default ~n_docs:6) in
  let stats = Router.split ~vfs ~k:3 ~dir c in
  clean ~vfs dir stats;
  let path = routing_path ~dir in
  let snap = Fv.snapshot fv in
  let n = String.length (Vfs.read_file vfs path) in
  checki "routing.idx is whole pages" 0 (n mod Page.size);
  for off = 0 to n - 1 do
    if off mod Page.size >= Page.payload_off then begin
      Fv.restore fv snap;
      Fv.corrupt_byte fv path ~off;
      flipped ~vfs dir (Printf.sprintf "flipped routing byte %d of %d" off n)
    end
  done

let test_routing_flip_rejected () =
  with_routing_flips
    ~clean:(fun ~vfs dir _ -> Router.close (Router.open_dir ~vfs dir))
    ~flipped:(fun ~vfs dir what ->
      match Router.open_dir ~vfs dir with
      | r ->
        Router.close r;
        Alcotest.failf "%s went unnoticed" what
      | exception E.Storage_error (E.Checksum _) -> ())

(* the check [hopi verify-store] runs on a routing index, over the same
   bytes: the clean file's counts, and every flip rejected *)
let test_read_routing_flips () =
  with_routing_flips
    ~clean:(fun ~vfs dir (stats : Router.split_stats) ->
      let r = Router.read_routing ~vfs (routing_path ~dir) in
      checki "shards" stats.Router.shards r.Router.n_shards;
      checki "links" stats.Router.cross_links (List.length r.Router.links);
      checkb "some cross links" true (r.Router.links <> []))
    ~flipped:(fun ~vfs dir what ->
      match Router.read_routing ~vfs (routing_path ~dir) with
      | _ -> Alcotest.failf "%s went unnoticed" what
      | exception E.Storage_error (E.Checksum _) -> ())

(* Re-splitting a directory over an existing split, crashing at every
   counted op: the directory always opens, and it answers a fixed sample
   of queries exactly as the old split or exactly as the new one — the
   old one up to the routing rename, the new one from it on. *)
let test_routing_crash_matrix () =
  with_temp_dir @@ fun dir ->
  let fv = Fv.create () in
  let vfs = Fv.vfs fv in
  let split n_docs () =
    ignore (Router.split ~vfs ~k:3 ~dir (Dblp.generate (Dblp.default ~n_docs)) : Router.split_stats)
  in
  let ids = List.init 40 (fun i -> 3 * i) in
  let answers () =
    let r = Router.open_dir ~vfs dir in
    Fun.protect ~finally:(fun () -> Router.close r) @@ fun () ->
    List.concat_map
      (fun u ->
        let v = (7 * u) + 5 in
        [
          string_of_bool (Router.connected r u v);
          Option.fold ~none:"-" ~some:string_of_int (min_distance r u v);
          String.concat "," (List.map string_of_int (sorted_of_ihs (descendants r u)));
          String.concat "," (List.map string_of_int (sorted_of_ihs (ancestors r v)));
        ])
      ids
  in
  split 6 ();
  let s_old = Fv.snapshot fv in
  let old_answers = answers () in
  Fv.reset_ops fv;
  split 160 ();
  let n_ops = Fv.op_count fv in
  let new_answers = answers () in
  checkb "the two splits answer differently" true (old_answers <> new_answers);
  check
    Alcotest.(list string)
    "only the live generation's files remain"
    [ "routing.idx"; "shard-000.db.gen1"; "shard-001.db.gen1"; "shard-002.db.gen1" ]
    (vfs.Vfs.list_dir dir);
  List.iter
    (fun (mode, tear) ->
      let committed = ref false in
      for k = 0 to n_ops do
        Fv.restore fv s_old;
        Fv.reset_ops fv;
        Fv.arm_crash fv ~op:k ~mode ?tear ();
        (match split 160 () with
        | () -> if k < n_ops then Alcotest.failf "crash at op %d did not fire" k
        | exception Fv.Crash -> ());
        Fv.disarm fv;
        let now = answers () in
        if now = new_answers then committed := true
        else if now <> old_answers then Alcotest.failf "crash at op %d: a mix of old and new" k
        else if !committed then Alcotest.failf "crash at op %d: the old split after the new" k
      done;
      checkb "a completed re-split serves the new split" true !committed)
    [ (Fv.Drop_unsynced, None); (Fv.Keep_unsynced, None); (Fv.Drop_unsynced, Some 37) ];
  checkb "re-split does real I/O" true (n_ops > 20)

let suite =
  [
    ( "serve.router",
      [
        Alcotest.test_case "failed open closes the shards it opened" `Quick
          test_failed_open_closes_shards;
        Alcotest.test_case "split writes the layout; open round-trips" `Quick
          test_split_layout;
        Alcotest.test_case "k clamps to the document count" `Quick
          test_split_clamps_k;
        Alcotest.test_case "unknown ids answer like a store" `Quick
          test_unknown_ids_mirror_store;
        Alcotest.test_case "batch engine over the router" `Quick
          test_engine_rendering;
        Alcotest.test_case "same-shard dist scatters" `Quick
          test_same_shard_dist_is_scatter;
        Alcotest.test_case "u a link source, v a link target: self-centers" `Quick
          test_self_centers;
        Alcotest.test_case "same-shard pair through another shard" `Quick
          test_leave_and_return;
        Alcotest.test_case "link endpoint in no shard is rejected" `Quick
          test_unregistered_link_rejected;
        Alcotest.test_case "dblp 60 docs, k=4: routing = closure and BFS" `Quick
          test_dblp60_differential;
        Alcotest.test_case "flipped routing byte is rejected" `Quick
          test_routing_flip_rejected;
        Alcotest.test_case "routing crash matrix: old split or new" `Quick
          test_routing_crash_matrix;
        Alcotest.test_case "link inside one shard is rejected" `Quick
          test_same_shard_link_rejected;
        Alcotest.test_case "element in two shards is rejected" `Quick
          test_element_in_two_shards_rejected;
        Alcotest.test_case "text routing index asks for a re-split" `Quick
          test_text_routing_rejected;
        Alcotest.test_case "re-split keeps files that are no shard store" `Quick
          test_resplit_keeps_foreign_files;
        Alcotest.test_case "read_routing: counts, and every flipped byte rejected" `Quick
          test_read_routing_flips;
        Alcotest.test_case "isolated elements: map from the shard registries" `Quick
          test_isolated_elements;
        Alcotest.test_case "link source and target: a self row only on a PSG cycle" `Quick
          test_source_and_target;
      ]
      @ qsuite [ prop_differential; prop_reopen_stable ] );
  ]
