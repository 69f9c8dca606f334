(* Tests for hopi_storage: Pager, Cover_store, Row_table. *)

open Hopi_storage
module Ihs = Hopi_util.Int_hashset
module Splitmix = Hopi_util.Splitmix
module Cover = Hopi_twohop.Cover

(* the catalog page's on-disk magic ("HOPI") and format version *)
let catalog_magic = 0x484F5049
let catalog_version = 4

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_ints = Alcotest.(check (list int))

(* every node an iterator yields, sorted: equal to a sorted set only when
   each node is yielded once *)
let yielded iter u =
  let acc = ref [] in
  iter u (fun w -> acc := w :: !acc);
  List.sort compare !acc

(* user data lives above the pager-owned checksum header *)
let po = Page.payload_off

(* {1 Pager} *)

(* a fresh page holding [v] at the first payload word *)
let page_with v =
  let page = Page.create () in
  Page.set_i32 page po v;
  page

let test_pager_alloc_read () =
  let p = Pager.create Pager.Memory in
  let id = Pager.alloc p in
  check_int "first page" 0 id;
  Pager.write p id (page_with 123456);
  check_int "read back" 123456 (Page.get_i32 (Pager.read p id) po);
  Alcotest.check_raises "oob" (Invalid_argument "Pager.read: page 5 out of [0,1)")
    (fun () -> ignore (Pager.read p 5));
  Alcotest.check_raises "unallocated write"
    (Invalid_argument "Pager.write: page 1 out of [0,1)")
    (fun () -> Pager.write p 1 (Page.create ()))

(* a read before the write pools the zero image; the write must drop it,
   so no stale image survives in the pool *)
let test_pager_read_sees_write () =
  let p = Pager.create ~pool_pages:1 Pager.Memory in
  let id = Pager.alloc p in
  check_int "unwritten page reads as zeros" 0 (Page.get_i32 (Pager.read p id) po);
  Pager.write p id (page_with 4242);
  check_int "the written bytes, not the pooled zeros" 4242
    (Page.get_i32 (Pager.read p id) po)

(* alloc/write every page once, then read them back through a pool
   smaller than the file, while writing and after reopening *)
let test_pager_eviction_roundtrip () =
  let p = Pager.create ~pool_pages:8 Pager.Memory in
  let n = 64 in
  for i = 0 to n - 1 do
    Pager.write p (Pager.alloc p) (page_with (i * 7))
  done;
  for i = 0 to n - 1 do
    check_int (Printf.sprintf "page %d" i) (i * 7) (Page.get_i32 (Pager.read p i) po)
  done;
  let st = Pager.stats p in
  check_bool "evictions happened" true (st.Pager.pool.Pager.Read_pool.evictions > 0);
  check_int "each page written once" n st.Pager.disk_writes;
  check_int "each page read once" n st.Pager.disk_reads

let test_pager_file_backend () =
  let path = Filename.temp_file "hopi_pager" ".db" in
  let p = Pager.create ~pool_pages:8 (Pager.File path) in
  for i = 0 to 31 do
    let page = Page.create () in
    Page.set_i32 page 100 (i + 1);
    Pager.write p (Pager.alloc p) page
  done;
  for i = 0 to 31 do
    check_int "roundtrip" (i + 1) (Page.get_i32 (Pager.read p i) 100)
  done;
  Pager.close p;
  Sys.remove path

(* publishing a store through a pool smaller than the store writes each
   page exactly once and reads none back *)
let test_pager_writes_each_page_once () =
  let rng = Splitmix.create 18 in
  let g = Hopi_graph.Digraph.create () in
  for v = 0 to 1199 do
    Hopi_graph.Digraph.add_node g v
  done;
  for _ = 1 to 900 do
    Hopi_graph.Digraph.add_edge g (Splitmix.int rng 1200) (Splitmix.int rng 1200)
  done;
  let cover, _ = Hopi_twohop.Builder.build (Hopi_graph.Closure.compute g) in
  let vfs = Vfs.memory () in
  let p = Pager.create_vfs ~pool_pages:4 ~vfs "once.db" in
  Cover_store.save (Cover_store.of_cover p cover);
  let st = Pager.stats p in
  Pager.close p;
  check_bool "the store outgrows the pool" true (st.Pager.pages > 4);
  check_int "disk_writes = n_pages" st.Pager.pages st.Pager.disk_writes;
  check_int "no page read back" 0 st.Pager.disk_reads

(* publishing over an existing file keeps the permission bits an
   operator set on it; a first publication is created 0600 *)
let test_republish_keeps_mode () =
  let path = Filename.temp_file "hopi_mode" ".db" in
  Sys.remove path;
  let publish () =
    let p = Pager.create (Pager.File path) in
    Pager.write p (Pager.alloc p) (Page.create ());
    Pager.close p
  in
  let perm () = (Unix.stat path).Unix.st_perm in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  publish ();
  check_int "first publication" 0o600 (perm ());
  Unix.chmod path 0o640;
  publish ();
  check_int "republication keeps the mode" 0o640 (perm ())

(* qcheck: random pages written once each survive alloc/write/read
   through a pool smaller than the file, and close + open_existing,
   byte-identically on the real VFS *)
let prop_pager_roundtrip_real_vfs =
  let gen =
    QCheck2.Gen.(
      pair (int_range 1 40)
        (list_size (int_bound 200)
           (triple (int_bound 39) (int_bound 100) (int_range (-0x40000000) 0x3FFFFFFF))))
  in
  QCheck2.Test.make ~name:"pager file roundtrip byte-identical" ~count:30 gen
    (fun (n_pages, words) ->
      let path = Filename.temp_file "hopi_prop" ".db" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          (* the model: the payload of every page, built before its write *)
          let model = Array.init n_pages (fun _ -> Page.create ()) in
          List.iter
            (fun (page, word, value) ->
              let off = po + (word mod ((Page.size - po) / 4)) * 4 in
              Page.set_i32 model.(page mod n_pages) off value)
            words;
          let payload b = Bytes.sub_string b po (Page.size - po) in
          let expect = Array.map payload model in
          let p = Pager.create ~pool_pages:4 (Pager.File path) in
          Array.iter (fun page -> Pager.write p (Pager.alloc p) (Bytes.copy page)) model;
          let matches q =
            Pager.n_pages q = n_pages
            && Array.for_all Fun.id
                 (Array.init n_pages (fun i -> payload (Pager.read q i) = expect.(i)))
          in
          let ok = ref (matches p) in
          Pager.close p;
          let q = Pager.open_existing ~pool_pages:4 path in
          if not (matches q) then ok := false;
          (* and a full checksum sweep straight off the file *)
          if Pager.verify_pages q <> [] then ok := false;
          Pager.close q;
          !ok))

(* {1 Cover_store} *)

let test_cover_store_roundtrip () =
  (* path cover 1 -> 2 -> 3, center 2 *)
  let cover = Cover.create () in
  List.iter (Cover.add_node cover) [ 1; 2; 3 ];
  Cover.add_out cover ~node:1 ~center:2;
  Cover.add_in cover ~node:3 ~center:2;
  let store = Cover_store.of_cover (Pager.create Pager.Memory) cover in
  check_int "entries" 2 (Cover_store.n_entries store);
  check_int "stored ints" 8 (Cover_store.stored_integers store);
  check_bool "1->3" true (Cover_store.connected store 1 3);
  check_bool "1->2" true (Cover_store.connected store 1 2);
  check_bool "3->1" false (Cover_store.connected store 3 1);
  check_bool "reflexive" true (Cover_store.connected store 2 2);
  check_bool "unknown node" false (Cover_store.connected store 1 99);
  let src = Cover_store.source store in
  check_ints "descendants" [ 1; 2; 3 ] (yielded (Cover_store.iter_desc src) 1);
  check_ints "ancestors" [ 1; 2; 3 ] (yielded (Cover_store.iter_anc src) 3)

let test_cover_store_distance () =
  let dc = Cover.create () in
  List.iter (Cover.add_node dc) [ 1; 2; 3 ];
  Cover.add_out dc ~node:1 ~center:2 ~dist:1;
  Cover.add_in dc ~node:3 ~center:2 ~dist:4;
  let store = Cover_store.of_cover (Pager.create Pager.Memory) dc in
  Alcotest.(check (option int)) "1->3 = 5" (Some 5) (Cover_store.min_distance store 1 3);
  Alcotest.(check (option int)) "1->2 = 1" (Some 1) (Cover_store.min_distance store 1 2);
  Alcotest.(check (option int)) "2->3 = 4" (Some 4) (Cover_store.min_distance store 2 3);
  Alcotest.(check (option int)) "self" (Some 0) (Cover_store.min_distance store 2 2);
  Alcotest.(check (option int)) "none" None (Cover_store.min_distance store 3 1);
  check_int "stored ints with dist" 12 (Cover_store.stored_integers store)

let test_cover_store_matches_cover () =
  (* random graph: store answers = in-memory cover answers *)
  let rng = Splitmix.create 99 in
  let g = Hopi_graph.Digraph.create () in
  for v = 0 to 29 do
    Hopi_graph.Digraph.add_node g v
  done;
  for _ = 1 to 60 do
    Hopi_graph.Digraph.add_edge g (Splitmix.int rng 30) (Splitmix.int rng 30)
  done;
  let clo = Hopi_graph.Closure.compute g in
  let cover, _ = Hopi_twohop.Builder.build clo in
  let store = Cover_store.of_cover (Pager.create ~pool_pages:16 Pager.Memory) cover in
  for u = 0 to 29 do
    for v = 0 to 29 do
      check_bool
        (Printf.sprintf "%d->%d" u v)
        (Cover.connected cover u v)
        (Cover_store.connected store u v)
    done
  done;
  check_int "entry counts agree" (Cover.size cover) (Cover_store.n_entries store)

let test_cover_store_persistence_roundtrip () =
  let path = Filename.temp_file "hopi_store" ".db" in
  (* build a cover over a random graph, persist, close *)
  let rng = Splitmix.create 31 in
  let g = Hopi_graph.Digraph.create () in
  for v = 0 to 19 do
    Hopi_graph.Digraph.add_node g v
  done;
  for _ = 1 to 40 do
    Hopi_graph.Digraph.add_edge g (Splitmix.int rng 20) (Splitmix.int rng 20)
  done;
  let clo = Hopi_graph.Closure.compute g in
  let cover, _ = Hopi_twohop.Builder.build clo in
  let pager = Pager.create ~pool_pages:16 (Pager.File path) in
  let store = Cover_store.of_cover pager cover in
  let entries = Cover_store.n_entries store in
  Cover_store.save store;
  Pager.close pager;
  (* reopen from disk and compare every answer *)
  let pager2 = Pager.open_existing ~pool_pages:16 path in
  let store2 = Cover_store.open_pager pager2 in
  check_int "entries survive" entries (Cover_store.n_entries store2);
  for u = 0 to 19 do
    for v = 0 to 19 do
      check_bool
        (Printf.sprintf "%d->%d" u v)
        (Cover.connected cover u v)
        (Cover_store.connected store2 u v)
    done
  done;
  Pager.close pager2;
  Sys.remove path

let test_cover_store_persistence_distances () =
  let path = Filename.temp_file "hopi_dstore" ".db" in
  let dc = Cover.create () in
  List.iter (Cover.add_node dc) [ 1; 2; 3 ];
  Cover.add_out dc ~node:1 ~center:2 ~dist:3;
  Cover.add_in dc ~node:3 ~center:2 ~dist:4;
  let pager = Pager.create (Pager.File path) in
  Cover_store.save (Cover_store.of_cover pager dc);
  Pager.close pager;
  let store2 = Cover_store.open_pager (Pager.open_existing path) in
  Alcotest.(check (option int)) "distance survives" (Some 7)
    (Cover_store.min_distance store2 1 3);
  check_int "dist flag survives (6 ints per entry)" 12
    (Cover_store.stored_integers store2);
  Sys.remove path

(* forward rows come back ascending by (center, dist) and backward rows
   ascending by node, whatever order the cover yields its entries in;
   the codec relies on the first (the first row of a center's run holds
   its minimum distance) *)
let test_cover_store_rows_ascend () =
  let dc = Cover.create () in
  List.iter (Cover.add_node dc) [ 1; 2; 3; 4; 10 ];
  List.iter
    (fun (c, d) -> Cover.add_in dc ~node:1 ~center:c ~dist:d)
    [ (10, 5); (2, 7); (4, 3); (3, 300) ];
  Cover.add_in dc ~node:4 ~center:10 ~dist:1;
  Cover.add_in dc ~node:2 ~center:10 ~dist:9;
  let st = Cover_store.of_cover (Pager.create Pager.Memory) dc in
  let rows = ref [] in
  Cover_store.iter_lin st 1 (fun ~center ~dist -> rows := (center, dist) :: !rows);
  let lin1 = [ (2, 7); (3, 300); (4, 3); (10, 5) ] in
  Alcotest.(check (list (pair int int))) "(center, dist) order" lin1 (List.rev !rows);
  check_bool "fetch is the encoded row" true
    (Cover_store.fetch st Cover_store.Lin 1 = Hopi_twohop.Label_codec.encode_pairs (Array.of_list lin1));
  let namers = ref [] in
  Cover_store.iter_in_by_center st 10 (fun ~node ~dist -> namers := (node, dist) :: !namers);
  Alcotest.(check (list (pair int int))) "backward row by node" [ (1, 5); (2, 9); (4, 1) ]
    (List.rev !namers)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* a store of an earlier format is refused with Bad_version, and the
   error carries the way out: rebuild *)
let check_old_version_refused got =
  let pager = Pager.create Pager.Memory in
  let page = page_with catalog_magic in
  Page.set_i32 page (po + 4) got;
  Pager.write pager (Pager.alloc pager) page;
  match Cover_store.open_pager pager with
  | _ -> Alcotest.failf "a version-%d store opened" got
  | exception Storage_error.Storage_error e ->
    check_bool (Printf.sprintf "Bad_version %d, expecting 4" got) true
      (e = Storage_error.Bad_version { got; expected = catalog_version });
    check_bool "the message names the version" true
      (contains (Storage_error.to_string e) (Printf.sprintf "version %d" got));
    (match Storage_error.hint e with
     | Some h ->
       check_bool "the hint names both rebuild commands" true
         (contains h "hopi build" && contains h "--store" && contains h "shard-split")
     | None -> Alcotest.fail "no rebuild hint")

(* version 2: B+-trees *)
let test_catalog_v2_store () = check_old_version_refused 2

(* version 3: row tables whose directory held 32-bit words and no
   reachability intervals *)
let test_catalog_v3_store () = check_old_version_refused 3

let test_catalog_bad_magic () =
  let pager = Pager.create Pager.Memory in
  ignore (Pager.alloc pager);
  Alcotest.check_raises "bad magic"
    (Storage_error.Storage_error
       (Storage_error.Bad_magic { got = 0; expected = catalog_magic }))
    (fun () -> ignore (Cover_store.open_pager pager))

let test_catalog_bad_version () =
  let pager = Pager.create Pager.Memory in
  let page = page_with catalog_magic in
  Page.set_i32 page (po + 4) 999;
  Pager.write pager (Pager.alloc pager) page;
  Alcotest.check_raises "bad version"
    (Storage_error.Storage_error
       (Storage_error.Bad_version { got = 999; expected = catalog_version }))
    (fun () -> ignore (Cover_store.open_pager pager))

let test_catalog_truncated () =
  (* an empty pager has no page 0 at all *)
  let pager = Pager.create Pager.Memory in
  check_bool "truncated" true
    (match Cover_store.open_pager pager with
    | _ -> false
    | exception Storage_error.Storage_error (Storage_error.Truncated _) -> true)

let test_catalog_wrong_kind () =
  (* a catalog of store kind 1, the B+-tree closure store of earlier
     builds (tree count 2 at [+16]), must be rejected by
     Cover_store.open_pager and by Snapshot.open_file *)
  let vfs = Vfs.memory () in
  let pager = Pager.create_vfs ~vfs "kind.db" in
  let page = page_with catalog_magic in
  List.iter (fun (off, v) -> Page.set_i32 page (po + off) v) [ (4, catalog_version); (8, 1); (16, 2) ];
  Pager.write pager (Pager.alloc pager) page;
  Pager.commit pager;
  Pager.close pager;
  let rejected = function
    | Storage_error.Bad_catalog msg -> contains msg "unknown store kind 1"
    | _ -> false
  in
  let pager2 = Pager.open_existing ~vfs "kind.db" in
  check_bool "wrong kind rejected" true
    (match Cover_store.open_pager pager2 with
    | _ -> false
    | exception Storage_error.Storage_error e -> rejected e);
  check_bool "snapshot rejects it too" true
    (match Hopi_serve.Snapshot.open_file ~vfs ~pool_pages:8 "kind.db" with
    | _ -> false
    | exception Storage_error.Storage_error e -> rejected e)

(* a published page file is never written again: after [commit] the
   writing pager and any pager opened on the file refuse every write entry
   point, a second commit included, and a close publishes nothing *)
let test_published_file_rejects_writes () =
  let vfs = Vfs.memory () in
  let p = Pager.create_vfs ~pool_pages:8 ~vfs "pub.db" in
  let id = Pager.alloc p in
  Pager.write p id (page_with 7);
  check_bool "nothing at the name before the commit" false (vfs.Vfs.exists "pub.db");
  Pager.commit p;
  check_bool "published" true (vfs.Vfs.exists "pub.db");
  check_bool "temp file renamed away" false (vfs.Vfs.exists (Vfs.tmp_path "pub.db"));
  let rejects what name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s pager accepted %s" what name
  in
  let rejects_writes what q =
    rejects what "alloc" (fun () -> ignore (Pager.alloc q));
    rejects what "write" (fun () -> Pager.write q id (page_with 8));
    rejects what "commit" (fun () -> Pager.commit q)
  in
  rejects_writes "committed" p;
  check_int "committed pager still reads" 7 (Page.get_i32 (Pager.read p id) po);
  Pager.close p;
  let q = Pager.open_existing ~vfs "pub.db" in
  rejects_writes "reopened" q;
  check_int "reopened pager reads" 7 (Page.get_i32 (Pager.read q id) po);
  Pager.close q;
  check_bool "no temp file left" false (vfs.Vfs.exists (Vfs.tmp_path "pub.db"))

let test_open_missing_file () =
  check_bool "missing file" true
    (match Pager.open_existing "/nonexistent/hopi-no-such-store.db" with
    | _ -> false
    | exception Storage_error.Storage_error (Storage_error.File_not_found _) -> true)

(* {1 The closure as a trivial cover} *)

let test_closure_store () =
  let g = Hopi_graph.Digraph.create () in
  List.iter (fun (u, v) -> Hopi_graph.Digraph.add_edge g u v)
    [ (1, 2); (2, 3); (1, 4) ];
  let clo = Hopi_graph.Closure.compute g in
  let store = Cover_store.of_closure (Pager.create Pager.Memory) clo in
  check_int "connections incl reflexive" 8 (Hopi_graph.Closure.n_connections clo);
  (* the reflexive pairs are implicit, as in every cover *)
  check_int "one Lout entry per non-reflexive connection" 4 (Cover_store.n_entries store);
  check_int "stored ints" 16 (Cover_store.stored_integers store);
  check_bool "1->3" true (Cover_store.connected store 1 3);
  check_bool "reflexive" true (Cover_store.connected store 4 4);
  check_bool "3->1" false (Cover_store.connected store 3 1);
  let src = Cover_store.source store in
  check_ints "descendants of 1" [ 1; 2; 3; 4 ] (yielded (Cover_store.iter_desc src) 1);
  check_ints "ancestors of 3" [ 1; 2; 3 ] (yielded (Cover_store.iter_anc src) 3);
  check_int "rows verified" (Catalog.cover_tables * 4) (Cover_store.check store)

let prop_dist_store_matches_dist_cover =
  QCheck2.Test.make ~name:"stored MIN(DIST) = Dist_builder's Cover.dist" ~count:25
    QCheck2.Gen.(pair (int_range 0 100000) (oneof [ int_range 2 14; int_range 63 160 ]))
    (fun (seed, n) ->
      let rng = Splitmix.create seed in
      let g = Hopi_graph.Digraph.create () in
      for v = 0 to n - 1 do
        Hopi_graph.Digraph.add_node g v
      done;
      (* past one 62-bit word, 1.2 edges per node, most pointing a few
         nodes ahead: many SCCs, so distance rows span several words and
         many start past word 0 *)
      let wide = n > Hopi_util.Bitrow.bits in
      for _ = 1 to if wide then 6 * n / 5 else 2 * n do
        let u = Splitmix.int rng n in
        let v =
          if wide && Splitmix.int rng 5 > 0 then min (n - 1) (u + 1 + Splitmix.int rng 4)
          else Splitmix.int rng n
        in
        if u <> v then Hopi_graph.Digraph.add_edge g u v
      done;
      let dc, _ = Hopi_twohop.Dist_builder.build g in
      let store = Cover_store.of_cover (Pager.create ~pool_pages:16 Pager.Memory) dc in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if Cover_store.min_distance store u v <> Cover.dist dc u v then ok := false
        done
      done;
      !ok)

let prop_store_anc_desc_match_cover =
  QCheck2.Test.make ~name:"stored ancestors/descendants = cover" ~count:25
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 2 14))
    (fun (seed, n) ->
      let rng = Splitmix.create seed in
      let g = Hopi_graph.Digraph.create () in
      for v = 0 to n - 1 do
        Hopi_graph.Digraph.add_node g v
      done;
      for _ = 1 to 2 * n do
        let u = Splitmix.int rng n and v = Splitmix.int rng n in
        if u <> v then Hopi_graph.Digraph.add_edge g u v
      done;
      let cover, _ = Hopi_twohop.Builder.build (Hopi_graph.Closure.compute g) in
      let store = Cover_store.of_cover (Pager.create ~pool_pages:16 Pager.Memory) cover in
      let src = Cover_store.source store in
      let same iter set v = yielded iter v = List.sort compare (Ihs.to_list set) in
      let ok = ref true in
      for v = 0 to n - 1 do
        if not (same (Cover_store.iter_desc src) (Cover.descendants cover v) v) then ok := false;
        if not (same (Cover_store.iter_anc src) (Cover.ancestors cover v) v) then ok := false
      done;
      !ok)

(* {1 Cover_store bulk load} *)

let random_graph ~seed ~n ~edges =
  let rng = Splitmix.create seed in
  let g = Hopi_graph.Digraph.create () in
  for v = 0 to n - 1 do
    Hopi_graph.Digraph.add_node g v
  done;
  for _ = 1 to edges do
    let u = Splitmix.int rng n and v = Splitmix.int rng n in
    if u <> v then Hopi_graph.Digraph.add_edge g u v
  done;
  g

(* write a store with [write], save it, and reopen it from the file *)
let reopened write =
  let vfs = Vfs.memory () in
  let pager = Pager.create_vfs ~pool_pages:16 ~vfs "bulk.db" in
  Cover_store.save (write pager);
  Pager.close pager;
  Cover_store.open_pager (Pager.open_existing ~pool_pages:16 ~vfs "bulk.db")

let prop_bulk_store_matches_cover =
  QCheck2.Test.make ~name:"bulk store = in-memory cover across reopen" ~count:20
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 2 16))
    (fun (seed, n) ->
      let g = random_graph ~seed ~n ~edges:(2 * n) in
      let cover, _ = Hopi_twohop.Builder.build (Hopi_graph.Closure.compute g) in
      let store = reopened (fun pager -> Cover_store.of_cover pager cover) in
      if Cover_store.n_entries store <> Cover.size cover then
        QCheck2.Test.fail_reportf "entries %d <> %d" (Cover_store.n_entries store)
          (Cover.size cover);
      if Cover_store.n_nodes store <> List.length (Cover.nodes cover) then
        QCheck2.Test.fail_report "node counts differ";
      if Cover_store.with_dist store then QCheck2.Test.fail_report "plain store has distances";
      let src = Cover_store.source store in
      let same iter set u = yielded iter u = List.sort compare (Ihs.to_list set) in
      let ok = ref true in
      for u = 0 to n + 1 do
        if Cover_store.mem_node store u <> Cover.mem_node cover u then ok := false;
        if not (same (Cover_store.iter_desc src) (Cover.descendants cover u) u) then ok := false;
        if not (same (Cover_store.iter_anc src) (Cover.ancestors cover u) u) then ok := false;
        for v = 0 to n + 1 do
          if Cover_store.connected store u v <> Cover.connected cover u v then ok := false
        done
      done;
      !ok)

let prop_bulk_dist_store_matches_cover =
  QCheck2.Test.make ~name:"bulk distance store = Cover.dist across reopen" ~count:15
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 2 14))
    (fun (seed, n) ->
      let g = random_graph ~seed ~n ~edges:(2 * n) in
      let dc, _ = Hopi_twohop.Dist_builder.build g in
      let store = reopened (fun pager -> Cover_store.of_cover pager dc) in
      let any_dist = ref false in
      List.iter (fun v ->
          let note _ d = if d > 0 then any_dist := true in
          Cover.iter_lin dc v note;
          Cover.iter_lout dc v note)
        (Cover.nodes dc);
      if Cover_store.n_entries store <> Cover.size dc then
        QCheck2.Test.fail_report "entry counts differ";
      if Cover_store.with_dist store <> !any_dist then
        QCheck2.Test.fail_report "dist flags differ";
      let ok = ref true in
      for u = 0 to n + 1 do
        for v = 0 to n + 1 do
          if Cover_store.min_distance store u v <> Cover.dist dc u v then ok := false
        done
      done;
      !ok)

let test_bulk_store_requires_fresh () =
  let cover = Cover.create () in
  Cover.add_node cover 1;
  let pager = Pager.create Pager.Memory in
  ignore (Pager.alloc pager);
  check_bool "pager with pages rejected" true
    (match Cover_store.of_cover pager cover with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "closure store too" true
    (match Cover_store.of_closure pager (Hopi_graph.Closure.compute (Hopi_graph.Digraph.create ())) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* {1 Row tables} *)

(* rewrite page [id] of a file in place and re-stamp its checksum, so
   the change passes every CRC check *)
let rewrite_page vfs file id f =
  let h = vfs.Vfs.open_file file ~create:false in
  let page = Bytes.create Page.size in
  ignore (Vfs.read_full h page ~off:(id * Page.size) ~pos:0 ~len:Page.size);
  f page;
  Page.stamp page;
  h.Vfs.write page ~off:(id * Page.size) ~pos:0 ~len:Page.size;
  h.Vfs.close ()

(* what [hopi verify-store] runs on a cover store: the checksums, then
   the directory invariants (at open) and the row check *)
let verify_store vfs file =
  let pgr = Pager.open_existing ~pool_pages:8 ~vfs file in
  Fun.protect ~finally:(fun () -> Pager.close pgr) @@ fun () ->
  if Pager.verify_pages pgr <> [] then `Checksum
  else
    match Cover_store.check (Cover_store.open_pager pgr) with
    | rows -> `Rows rows
    | exception Storage_error.Storage_error (Storage_error.Bad_catalog _) -> `Structure

(* the directory's varint stream: per key, the byte offset and value of
   each of its seven fields (key word, four row lengths, post,
   post - low) *)
let directory_fields vfs file =
  let pgr = Pager.open_existing ~vfs file in
  Fun.protect ~finally:(fun () -> Pager.close pgr) @@ fun () ->
  let l = (Catalog.read pgr).Catalog.rows in
  let payload = Page.size - po in
  let byte j = Bytes.get_uint8 (Pager.read pgr (l.Catalog.dir_first + (j / payload))) (po + (j mod payload)) in
  let pos = ref 0 in
  let varint () =
    let at = !pos and v = ref 0 and shift = ref 0 and more = ref true in
    while !more do
      let c = byte !pos in
      incr pos;
      v := !v lor ((c land 0x7f) lsl !shift);
      shift := !shift + 7;
      more := c >= 0x80
    done;
    (at, !v, !pos - at)
  in
  let fields = Array.init l.Catalog.n_keys (fun _ -> Array.init 7 (fun _ -> varint ())) in
  check_int "the fields fill the directory" l.Catalog.dir_bytes !pos;
  (l, fields)

let test_verify_corrupt_directory () =
  let cover, _ =
    Hopi_twohop.Builder.build (Hopi_graph.Closure.compute (random_graph ~seed:5 ~n:80 ~edges:120))
  in
  let vfs = Vfs.memory () in
  let p = Pager.create_vfs ~vfs "dir.db" in
  Cover_store.save (Cover_store.of_cover p cover);
  Pager.close p;
  let layout, fields = directory_fields vfs "dir.db" in
  let n = layout.Catalog.n_keys in
  let payload = Page.size - po in
  (* overwrite a one-byte field of slot [i] *)
  let set_field i f v =
    let at, _, len = fields.(i).(f) in
    check_int "a one-byte field" 1 len;
    assert (v >= 0 && v < 0x80);
    rewrite_page vfs "dir.db" (layout.Catalog.dir_first + (at / payload)) (fun page ->
        Bytes.set_uint8 page (po + (at mod payload)) v)
  in
  let value i f =
    let _, v, _ = fields.(i).(f) in
    v
  in
  let one_byte i f =
    let _, _, len = fields.(i).(f) in
    len = 1
  in
  check_bool "a clean store verifies every row" true (verify_store vfs "dir.db" = `Rows (4 * n));
  let clean = Vfs.read_file vfs "dir.db" in
  let restore () =
    let h = vfs.Vfs.open_file "dir.db" ~create:true in
    h.Vfs.write (Bytes.of_string clean) ~off:0 ~pos:0 ~len:(String.length clean);
    h.Vfs.close ()
  in
  (* one Lin row a byte longer and the next a byte shorter: the lengths
     still end where the heap does, but two rows now split in the wrong
     place *)
  let lin_len i = value i 1 in
  let i = ref 0 in
  while
    not (lin_len !i >= 1 && lin_len !i < 0x7f && lin_len (!i + 1) >= 1 && one_byte (!i + 1) 1)
  do
    incr i
  done;
  set_field !i 1 (lin_len !i + 1);
  set_field (!i + 1) 1 (lin_len (!i + 1) - 1);
  check_bool "a shifted row boundary fails the structural check" true
    (verify_store vfs "dir.db" = `Structure);
  restore ();
  (* a key out of order: slot 1's key delta zeroed, its flag kept *)
  set_field 1 0 (value 1 0 land 1);
  check_bool "a key out of order fails it" true (verify_store vfs "dir.db" = `Structure);
  restore ();
  (* an interval past the last key *)
  set_field 0 5 0x7f;
  check_bool "post >= n_keys fails at open" true (n < 0x7f && verify_store vfs "dir.db" = `Structure);
  restore ();
  (* one node's interval shrunk to its post: low u = post u, above the
     low of a Lout center in another component — only the containment
     check sees it *)
  let post i = value i 5 and low i = value i 5 - value i 6 in
  let victim =
    let pgr = Pager.open_existing ~vfs "dir.db" in
    Fun.protect ~finally:(fun () -> Pager.close pgr) @@ fun () ->
    let st = Cover_store.open_pager pgr in
    let keys = Array.make n 0 in
    Array.iteri (fun i _ -> keys.(i) <- (if i = 0 then 0 else keys.(i - 1)) + (value i 0 lsr 1)) keys;
    let slot k = Hopi_twohop.Cover.slot keys k in
    List.find
      (fun u ->
        value u 6 > 0 && one_byte u 6
        && begin
          let hit = ref false in
          Cover_store.iter_lout st keys.(u) (fun ~center ~dist:_ ->
              let c = slot center in
              if post c <> post u && low c < post u then hit := true);
          !hit
        end)
      (List.init n Fun.id)
  in
  set_field victim 6 0;
  check_bool "a corrupt interval fails the containment check" true
    (verify_store vfs "dir.db" = `Structure);
  restore ();
  check_bool "restored" true (verify_store vfs "dir.db" = `Rows (4 * n))

(* the point of the layout: a row that fits in a page costs one pool
   touch, label fetch or by-center scan alike; an empty row costs none *)
let test_row_is_one_pool_touch () =
  let cover, _ =
    Hopi_twohop.Builder.build (Hopi_graph.Closure.compute (random_graph ~seed:3 ~n:2000 ~edges:1500))
  in
  let vfs = Vfs.memory () in
  let p = Pager.create_vfs ~vfs "touch.db" in
  Cover_store.save (Cover_store.of_cover p cover);
  Pager.close p;
  let pool = Pager.Read_pool.create ~shards:1 ~pages:2 () in
  let pgr = Pager.open_shared ~vfs ~pool "touch.db" in
  let st = Cover_store.open_pager pgr in
  let touches () =
    let s = Pager.Read_pool.stats pool in
    s.Pager.Read_pool.hits + s.Pager.Read_pool.misses
  in
  let touched f =
    let t0 = touches () in
    f ();
    touches () - t0
  in
  List.iter (fun v ->
      let expect n = if n = 0 then 0 else 1 in
      List.iter
        (fun (what, dir, card) ->
          let n = card cover v in
          check_int (Printf.sprintf "%s(%d): pool touches" what v) (expect n)
            (touched (fun () -> ignore (Cover_store.fetch st dir v))))
        [ ("Lin", Cover_store.Lin, Cover.lin_cardinal); ("Lout", Cover_store.Lout, Cover.lout_cardinal) ];
      List.iter
        (fun (what, scan, namers) ->
          check_int (Printf.sprintf "%s(%d): pool touches" what v)
            (expect (List.length (Hopi_util.Int_set.to_list (namers cover v))))
            (touched (fun () -> scan st v (fun ~node:_ ~dist:_ -> ()))))
        [ ("in_by_center", Cover_store.iter_in_by_center, Cover.in_labelled_with);
          ("out_by_center", Cover_store.iter_out_by_center, Cover.out_labelled_with) ])
    (Cover.nodes cover);
  check_bool "rows on several pages" true (Pager.n_pages pgr > 6);
  Pager.close pgr

(* Cold misses from four domains at once through a 2-page shared pool:
   a miss reads the raw page under the pager's I/O lock and checks its
   CRC outside it, so misses on one page race.  Every image served must
   be the file's; after a payload byte is flipped on disk, every read of
   that page raises [Checksum], is counted, and never leaves the page in
   the pool (a pooled page would be served on the next read, unchecked). *)
let test_concurrent_cold_misses () =
  let path = Filename.temp_file "hopi_cold_miss" ".db" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) @@ fun () ->
  let n_pages = 12 and bad = 5 in
  let p = Pager.create ~fsync:false (Pager.File path) in
  for _ = 1 to n_pages do
    let id = Pager.alloc p in
    let page = Page.create () in
    for k = po to Page.size - 1 do
      Bytes.set_uint8 page k (((id * 131) + (k * 7)) land 0xFF)
    done;
    Pager.write p id page
  done;
  Pager.close p;
  let failures () =
    Hopi_obs.Counter.get (Hopi_obs.Registry.counter "hopi_storage_checksum_failures_total")
  in
  (* four domains over one fresh pager and pool; per domain: images that
     differ from the file, [Checksum]s on the flipped page, and reads of it
     that were served *)
  let readers ~flipped =
    let file = In_channel.with_open_bin path In_channel.input_all in
    let pool = Pager.Read_pool.create ~pages:2 () in
    let pgr = Pager.open_shared ~pool path in
    Fun.protect ~finally:(fun () -> Pager.close pgr) @@ fun () ->
    let reader k =
      Domain.spawn (fun () ->
          let rng = Splitmix.create (k + 1) in
          let wrong = ref 0 and rejected = ref 0 and served_bad = ref 0 in
          for _ = 1 to 1500 do
            let id = Splitmix.int rng n_pages in
            match Pager.read pgr id with
            | page ->
              if flipped && id = bad then incr served_bad
              else if Bytes.to_string page <> String.sub file (id * Page.size) Page.size then
                incr wrong
            | exception Storage_error.Storage_error (Storage_error.Checksum { page })
              when flipped && page = bad && id = bad ->
              incr rejected
          done;
          (!wrong, !rejected, !served_bad))
    in
    List.map Domain.join (List.init 4 reader)
  in
  List.iteri
    (fun k (wrong, _, _) -> check_int (Printf.sprintf "domain %d: images = the file" k) 0 wrong)
    (readers ~flipped:false);
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  let off = (bad * Page.size) + po + 100 in
  let byte = Bytes.create 1 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.read fd byte 0 1);
  Bytes.set_uint8 byte 0 (Bytes.get_uint8 byte 0 lxor 0x10);
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd byte 0 1);
  Unix.close fd;
  let f0 = failures () in
  let runs = readers ~flipped:true in
  List.iteri
    (fun k (wrong, rejected, served_bad) ->
      check_int (Printf.sprintf "domain %d: other images = the file" k) 0 wrong;
      check_bool (Printf.sprintf "domain %d: reads of the flipped page raise" k) true (rejected > 0);
      check_int (Printf.sprintf "domain %d: the flipped page is never served" k) 0 served_bad)
    runs;
  check_int "every rejection counted"
    (List.fold_left (fun acc (_, r, _) -> acc + r) 0 runs)
    (failures () - f0)

(* a default-sharded pool below 16 pages keeps to its budget: reading
   every page of a many-page store through a 2-page pool never holds more
   than 2 and evicts *)
let test_small_pool_keeps_budget () =
  let cover, _ =
    Hopi_twohop.Builder.build (Hopi_graph.Closure.compute (random_graph ~seed:3 ~n:2000 ~edges:1500))
  in
  let vfs = Vfs.memory () in
  let p = Pager.create_vfs ~vfs "small.db" in
  Cover_store.save (Cover_store.of_cover p cover);
  Pager.close p;
  let pool = Pager.Read_pool.create ~pages:2 () in
  let pgr = Pager.open_shared ~vfs ~pool "small.db" in
  check_bool "more pages than the pool" true (Pager.n_pages pgr > 4);
  for round = 1 to 2 do
    for id = 0 to Pager.n_pages pgr - 1 do
      ignore (Pager.read pgr id);
      let s = Pager.Read_pool.stats pool in
      check_bool (Printf.sprintf "round %d page %d: at most 2 resident" round id) true
        (s.Pager.Read_pool.resident <= 2)
    done
  done;
  let s = Pager.Read_pool.stats pool in
  check_int "capacity" 2 s.Pager.Read_pool.capacity;
  check_bool "evicted" true (s.Pager.Read_pool.evictions > 0);
  Pager.close pgr

(* A cover straight from random label entries: node ids dense or sparse
   (as in shards and live generations), every fifth node without
   entries, a few centers that are not nodes, distances of one and two
   varint bytes, and optionally a hub center named by so many nodes that
   its backward row spans pages. *)
let random_label_entries ~seed ~n ~sparse ~hub =
  let rng = Splitmix.create seed in
  let id i = if sparse then 7 + (13 * i) + (i * i mod 5) else i in
  let nodes = Array.init n id in
  let entries = ref [] in
  Array.iteri
    (fun i v ->
      if i mod 5 <> 0 then
        for _ = 1 to Splitmix.int rng 6 do
          let c =
            if Splitmix.int rng 20 = 0 then 1_000_000 + Splitmix.int rng 3
            else nodes.(Splitmix.int rng n)
          in
          entries := (v, Splitmix.int rng 2 = 0, c, Splitmix.int rng 400) :: !entries
        done)
    nodes;
  if hub then
    Array.iter
      (fun v -> if v <> nodes.(n / 2) then entries := (v, true, nodes.(n / 2), 1) :: !entries)
      nodes;
  (nodes, !entries)

let prop_row_tables_match_cover =
  QCheck2.Test.make ~name:"row tables = cover through a 2-page pool" ~count:24
    QCheck2.Gen.(quad (int_range 0 1_000_000) (int_range 1 120) bool (int_range 0 5))
    (fun (seed, n, sparse, shape) ->
      (* shape 0: hub over a 2,200-node cover; odd shapes: distances *)
      let hub = shape = 0 in
      let n = if hub then 2200 else n in
      let with_dist = shape land 1 = 1 in
      let nodes, entries = random_label_entries ~seed ~n ~sparse ~hub in
      (* the in-memory cover, its rows, and the store written from it *)
      let c = Cover.create () in
      Array.iter (Cover.add_node c) nodes;
      List.iter
        (fun (v, is_in, w, d) ->
          let dist = if with_dist then d else 0 in
          (if is_in then Cover.add_in else Cover.add_out) c ~dist ~node:v ~center:w)
        entries;
      let rows iter v =
        let l = ref [] in
        if Cover.mem_node c v then iter c v (fun w d -> l := (w, d) :: !l);
        List.sort compare !l
      in
      let lin = rows Cover.iter_lin and lout = rows Cover.iter_lout in
      let write pgr = Cover_store.of_cover pgr c in
      let vfs = Vfs.memory () in
      let p = Pager.create_vfs ~vfs "rows.db" in
      Cover_store.save (write p);
      Pager.close p;
      let pool = Pager.Read_pool.create ~shards:1 ~pages:2 () in
      let pgr = Pager.open_shared ~vfs ~pool "rows.db" in
      Fun.protect ~finally:(fun () -> Pager.close pgr) @@ fun () ->
      let st = Cover_store.open_pager pgr in
      let namers rows =
        let h = Hashtbl.create 64 in
        Array.iter
          (fun v -> List.iter (fun (c, d) -> Hashtbl.replace h c ((v, d) :: (try Hashtbl.find h c with Not_found -> []))) (rows v))
          nodes;
        fun w -> List.sort compare (try Hashtbl.find h w with Not_found -> [])
      in
      let lin_namers = namers lin and lout_namers = namers lout in
      let fwd iter v =
        let l = ref [] in
        iter st v (fun ~center ~dist -> l := (center, dist) :: !l);
        List.rev !l
      in
      let bwd iter w =
        let l = ref [] in
        iter st w (fun ~node ~dist -> l := (node, dist) :: !l);
        List.rev !l
      in
      let enc rows = Hopi_twohop.Label_codec.encode_pairs (Array.of_list rows) in
      let probes =
        Array.to_list nodes @ [ 1_000_000; 1_000_001; 1_000_002; 3; 100_000 ]
      in
      let hub_row = ref 0 in
      List.iter
        (fun v ->
          let node = Array.mem v nodes in
          if Cover_store.mem_node st v <> node then QCheck2.Test.fail_reportf "mem_node %d" v;
          if fwd Cover_store.iter_lin v <> lin v then QCheck2.Test.fail_reportf "iter_lin %d" v;
          if fwd Cover_store.iter_lout v <> lout v then QCheck2.Test.fail_reportf "iter_lout %d" v;
          if Cover_store.fetch st Cover_store.Lin v <> enc (lin v) then
            QCheck2.Test.fail_reportf "fetch Lin %d" v;
          if Cover_store.fetch st Cover_store.Lout v <> enc (lout v) then
            QCheck2.Test.fail_reportf "fetch Lout %d" v;
          let ins = bwd Cover_store.iter_in_by_center v in
          if ins <> lin_namers v then QCheck2.Test.fail_reportf "iter_in_by_center %d" v;
          if bwd Cover_store.iter_out_by_center v <> lout_namers v then
            QCheck2.Test.fail_reportf "iter_out_by_center %d" v;
          hub_row := max !hub_row (List.length ins))
        probes;
      (* each backward entry costs at least two bytes *)
      if hub && 2 * !hub_row <= Page.size - po then
        QCheck2.Test.fail_reportf "the hub's backward row holds only %d entries" !hub_row;
      if Cover_store.n_nodes st <> n then QCheck2.Test.fail_report "n_nodes";
      ignore (Cover_store.check st : int);
      true)

(* {1 desc/anc iterators} *)

(* A distance store written row by row, in the shape no cover produces:
   node 2 appears with two distances in center 1's backward LIN row, and
   nodes 2 and 3 are named by several backward rows, one of them that of
   center 50, which is not a node.  The iterators yield each node once. *)
let test_iterators_yield_once () =
  let keys = [| 0; 1; 2; 3; 50 |] in
  let slot k =
    let rec go i = if keys.(i) = k then i else go (i + 1) in
    go 0
  in
  let table rows i =
    Hopi_twohop.Label_codec.encode_pairs
      (Array.of_list (try List.assoc keys.(i) rows with Not_found -> []))
  in
  (* forward rows (center, dist) by node; backward rows (slot, dist) by center *)
  let lin = [ (2, [ (1, 1); (1, 3); (50, 2) ]); (3, [ (0, 4); (1, 2); (50, 1) ]) ]
  and lin_by = [ (0, [ (slot 3, 4) ]); (1, [ (slot 2, 1); (slot 2, 3); (slot 3, 2) ]);
                 (50, [ (slot 2, 2); (slot 3, 1) ]) ]
  and lout = [ (0, [ (1, 1); (50, 2) ]) ]
  and lout_by = [ (1, [ (slot 0, 1) ]); (50, [ (slot 0, 2) ]) ] in
  let vfs = Vfs.memory () in
  let p = Pager.create_vfs ~vfs "dup.db" in
  Catalog.reserve "test" p;
  let w = Row_table.writer p ~keys ~registered:(fun k -> k <> 50) in
  List.iter (fun rows -> Row_table.add_table w (table rows)) [ lin; lin_by; lout; lout_by ];
  let zero = Array.make (Array.length keys) 0 in
  let rows = Row_table.finish w ~post:zero ~low:zero in
  Catalog.write p { Catalog.with_dist = true; rows = Row_table.layout rows };
  Pager.close p;
  let st = Cover_store.open_pager (Pager.open_existing ~pool_pages:2 ~vfs "dup.db") in
  let src = Cover_store.source st in
  check_ints "desc 0" [ 0; 1; 2; 3; 50 ] (yielded (Cover_store.iter_desc src) 0);
  check_ints "desc 1" [ 1; 2; 3 ] (yielded (Cover_store.iter_desc src) 1);
  check_ints "anc 2" [ 0; 1; 2; 50 ] (yielded (Cover_store.iter_anc src) 2);
  check_ints "anc 3" [ 0; 1; 3; 50 ] (yielded (Cover_store.iter_anc src) 3);
  check_ints "a center that is not a node has no result" [] (yielded (Cover_store.iter_desc src) 50);
  check_ints "an unknown node has no result" [] (yielded (Cover_store.iter_anc src) 7)

(* desc/anc over stores read through a 2-page pool against BFS over the
   graph: plain and distance covers, dense or sparse ids, and relay
   centers that are not nodes joining connected pairs (a relay named in
   [Lout(u)] is in u's result, as in [Cover.descendants]).  Relays name
   the same nodes as other centers do, so nodes are reached through
   several backward rows; yielding any node twice fails the check. *)
let prop_iterators_match_bfs =
  QCheck2.Test.make ~name:"desc/anc iterators = BFS oracle, each node once" ~count:40
    QCheck2.Gen.(quad (int_range 0 1_000_000) (int_range 1 40) bool bool)
    (fun (seed, n, sparse, with_dist) ->
      let id i = if sparse then 7 + (13 * i) + (i * i mod 5) else i in
      let g = random_graph ~seed ~n ~edges:(3 * n / 2) in
      let g' = Hopi_graph.Digraph.create () in
      for i = 0 to n - 1 do
        Hopi_graph.Digraph.add_node g' (id i)
      done;
      Hopi_graph.Digraph.iter_edges g (fun u v -> Hopi_graph.Digraph.add_edge g' (id u) (id v));
      let g = g' and nodes = List.init n id in
      let reach u = Hopi_graph.Traversal.reachable g [ u ] in
      let reached_by v = Hopi_graph.Traversal.reachable_backward g [ v ] in
      let relay i = 1_000_000 + i in
      let relayed =
        List.concat_map (fun u -> List.map (fun v -> (u, v)) (Ihs.to_list (reach u))) nodes
        |> List.filter (fun (u, v) -> u <> v)
        |> List.filteri (fun i _ -> i mod 5 = 0)
      in
      let c =
        if with_dist then fst (Hopi_twohop.Dist_builder.build g)
        else fst (Hopi_twohop.Builder.build (Hopi_graph.Closure.compute g))
      in
      List.iteri
        (fun i (u, v) ->
          Cover.add_out c ~dist:(if with_dist then 1 else 0) ~node:u ~center:(relay i);
          Cover.add_in c ~node:v ~center:(relay i))
        relayed;
      let st = reopened (fun p -> Cover_store.of_cover p c) in
      let src = Cover_store.source st in
      let relays_of pick =
        List.concat (List.mapi (fun i pair -> if pick pair then [ relay i ] else []) relayed)
      in
      let expect set extra = List.sort compare (Ihs.to_list set @ extra) in
      List.iter
        (fun u ->
          let want = expect (reach u) (relays_of (fun (a, _) -> a = u)) in
          if yielded (Cover_store.iter_desc src) u <> want then
            QCheck2.Test.fail_reportf "desc %d" u;
          let want = expect (reached_by u) (relays_of (fun (_, b) -> b = u)) in
          if yielded (Cover_store.iter_anc src) u <> want then
            QCheck2.Test.fail_reportf "anc %d" u)
        nodes;
      List.iter
        (fun x ->
          if yielded (Cover_store.iter_desc src) x <> [] || yielded (Cover_store.iter_anc src) x <> []
          then QCheck2.Test.fail_reportf "%d is no node, yet has a result" x)
        [ relay 0; -1; 5_000_000 ];
      true)

(* {1 The reachability interval} *)

let cuts () = Hopi_obs.Counter.get (Hopi_obs.Registry.counter "hopi_serve_reach_cut_total")

(* All-pairs reach/dist through a counting source over a store read
   through a 2-page pool, against BFS over the graph: random graphs with
   cycles, dense or sparse ids, relay centers that are not nodes (one per
   connected pair it joins, so the answers stay the graph's), plain
   and distance covers, empty ones included, and the same graph's
   closure stored as the trivial cover.  A pair the interval rejects
   must be answered without a fetch; writing the same cover twice gives
   the same bytes. *)
let prop_interval_matches_bfs =
  QCheck2.Test.make ~name:"interval cut = BFS oracle, no fetch on a cut pair" ~count:40
    QCheck2.Gen.(quad (int_range 0 1_000_000) (int_range 0 24) bool bool)
    (fun (seed, n, sparse, with_dist) ->
      let id i = if sparse then 7 + (13 * i) + (i * i mod 5) else i in
      let rng = Splitmix.create seed in
      let g = Hopi_graph.Digraph.create () in
      for i = 0 to n - 1 do
        Hopi_graph.Digraph.add_node g (id i)
      done;
      for _ = 1 to 3 * n / 2 do
        let u = Splitmix.int rng n and v = Splitmix.int rng n in
        if u <> v then Hopi_graph.Digraph.add_edge g (id u) (id v)
      done;
      let nodes = List.init n id in
      let bfs = List.map (fun u -> (u, Hopi_graph.Traversal.bfs_distances g u)) nodes in
      let oracle u v =
        match List.assoc_opt u bfs with
        | None -> None
        | Some h -> Hashtbl.find_opt h v
      in
      let relay i = 1_000_000 + i in
      let relayed =
        List.filter (fun (u, v) -> u <> v && oracle u v <> None)
          (List.concat_map (fun u -> List.map (fun v -> (u, v)) nodes) nodes)
        |> List.filteri (fun i _ -> i mod 7 = 0)
      in
      let write pgr =
        let c =
          if with_dist then fst (Hopi_twohop.Dist_builder.build g)
          else fst (Hopi_twohop.Builder.build (Hopi_graph.Closure.compute g))
        in
        List.iteri
          (fun i (u, v) ->
            let dist = if with_dist then Option.get (oracle u v) else 0 in
            Cover.add_out c ~dist ~node:u ~center:(relay i);
            Cover.add_in c ~node:v ~center:(relay i))
          relayed;
        Cover_store.of_cover pgr c
      in
      let closure = Hopi_graph.Closure.compute g in
      List.for_all
        (fun write ->
          let vfs = Vfs.memory () in
          List.iter
            (fun file ->
              let p = Pager.create_vfs ~vfs file in
              Cover_store.save (write p);
              Pager.close p)
            [ "a.db"; "b.db" ];
          if Vfs.read_file vfs "a.db" <> Vfs.read_file vfs "b.db" then
            QCheck2.Test.fail_report "the same cover wrote different bytes";
          let pool = Pager.Read_pool.create ~shards:1 ~pages:2 () in
          let pgr = Pager.open_shared ~vfs ~pool "a.db" in
          Fun.protect ~finally:(fun () -> Pager.close pgr) @@ fun () ->
          let st = Cover_store.open_pager pgr in
          ignore (Cover_store.check st : int);
          let fetches = ref 0 in
          let src =
            { (Cover_store.source st) with
              fetch =
                (fun dir v ->
                  incr fetches;
                  Cover_store.fetch st dir v) }
          in
          let probes = nodes @ [ relay 0; -1; 5_000_000 ] in
          List.iter
            (fun u ->
              List.iter
                (fun v ->
                  let want =
                    if Cover_store.with_dist st then oracle u v
                    else Option.map (fun _ -> 0) (oracle u v)
                  in
                  (* [f] answers, and whether the interval did, making no fetch *)
                  let run f =
                    let c0 = cuts () and f0 = !fetches in
                    let a = f src u v in
                    let cut = cuts () > c0 in
                    if cut && !fetches > f0 then QCheck2.Test.fail_reportf "%d %d: cut, yet fetched" u v;
                    (a, cut)
                  in
                  let r, cut = run Cover_store.reach and d, dist_cut = run Cover_store.dist in
                  if r <> (want <> None) then QCheck2.Test.fail_reportf "reach %d %d" u v;
                  if d <> want then QCheck2.Test.fail_reportf "dist %d %d" u v;
                  if cut <> dist_cut then QCheck2.Test.fail_reportf "reach and dist cut %d %d differently" u v)
                probes)
            probes;
          true)
        [ write; (fun pgr -> Cover_store.of_closure pgr closure) ])

(* two disjoint chains: the interval answers every pair across them *)
let test_interval_cuts_negatives () =
  let g = Hopi_graph.Digraph.create () in
  List.iter (fun (u, v) -> Hopi_graph.Digraph.add_edge g u v) [ (0, 1); (1, 2); (10, 11); (11, 12) ];
  let cover, _ = Hopi_twohop.Builder.build (Hopi_graph.Closure.compute g) in
  let st = reopened (fun p -> Cover_store.of_cover p cover) in
  let c0 = cuts () in
  List.iter
    (fun (u, v) -> check_bool (Printf.sprintf "%d !-> %d" u v) false (Cover_store.connected st u v))
    [ (0, 10); (2, 12); (12, 0); (2, 0) ];
  check_int "all four answered by the interval" 4 (cuts () - c0);
  check_bool "a connected pair still answers" true (Cover_store.connected st 0 2);
  check_int "... through the merge" 4 (cuts () - c0)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "storage.pager",
      [
        Alcotest.test_case "alloc/read" `Quick test_pager_alloc_read;
        Alcotest.test_case "eviction roundtrip" `Quick test_pager_eviction_roundtrip;
        Alcotest.test_case "file backend" `Quick test_pager_file_backend;
        Alcotest.test_case "reads see writes" `Quick test_pager_read_sees_write;
        Alcotest.test_case "each page written once" `Quick
          test_pager_writes_each_page_once;
        Alcotest.test_case "open missing file" `Quick test_open_missing_file;
        Alcotest.test_case "published file rejects writes" `Quick
          test_published_file_rejects_writes;
        Alcotest.test_case "republished file keeps its mode" `Quick
          test_republish_keeps_mode;
      ]
      @ qsuite [ prop_pager_roundtrip_real_vfs ] );
    ( "storage.cover_store",
      [
        Alcotest.test_case "roundtrip" `Quick test_cover_store_roundtrip;
        Alcotest.test_case "distance" `Quick test_cover_store_distance;
        Alcotest.test_case "matches cover" `Quick test_cover_store_matches_cover;
        Alcotest.test_case "persistence roundtrip" `Quick
          test_cover_store_persistence_roundtrip;
        Alcotest.test_case "persistence distances" `Quick
          test_cover_store_persistence_distances;
        Alcotest.test_case "bad catalog" `Quick test_catalog_bad_magic;
        Alcotest.test_case "bad version" `Quick test_catalog_bad_version;
        Alcotest.test_case "version-2 store: rebuild hint" `Quick test_catalog_v2_store;
        Alcotest.test_case "version-3 store: rebuild hint" `Quick test_catalog_v3_store;
        Alcotest.test_case "rows ascend by dist" `Quick test_cover_store_rows_ascend;
        Alcotest.test_case "desc/anc yield each node once" `Quick test_iterators_yield_once;
        Alcotest.test_case "truncated store" `Quick test_catalog_truncated;
        Alcotest.test_case "wrong store kind" `Quick test_catalog_wrong_kind;
        Alcotest.test_case "bulk load requires a fresh store" `Quick
          test_bulk_store_requires_fresh;
      ] );
    ("storage.closure_store", [ Alcotest.test_case "basic" `Quick test_closure_store ]);
    ( "storage.row_table",
      [
        Alcotest.test_case "corrupt directory word fails verify" `Quick
          test_verify_corrupt_directory;
        Alcotest.test_case "a row is one pool touch" `Quick test_row_is_one_pool_touch;
        Alcotest.test_case "a 2-page pool holds at most 2 pages" `Quick test_small_pool_keeps_budget;
        Alcotest.test_case "concurrent cold misses through a 2-page pool" `Quick
          test_concurrent_cold_misses;
        Alcotest.test_case "interval cuts negatives" `Quick test_interval_cuts_negatives;
      ]
      @ qsuite [ prop_row_tables_match_cover; prop_interval_matches_bfs ] );
    ( "storage.cover_store_props",
      qsuite
        [
          prop_dist_store_matches_dist_cover;
          prop_store_anc_desc_match_cover;
          prop_iterators_match_bfs;
          prop_bulk_store_matches_cover;
          prop_bulk_dist_store_matches_cover;
        ] );
  ]
