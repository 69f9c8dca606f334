(* Zero-downtime serving tests: the generational store swap of
   Hopi_serve.Generation.  Lifecycle (apply/flip/rollback, refcounted
   retention, file cleanup), flip-time label-cache invalidation, the op
   protocol, a qcheck differential proving live churn equals an offline
   replay + rebuild, and — the load-bearing one — a churn-under-load soak:
   reader domains hammer snapshots while a writer flips generations, and
   every answer must match the BFS oracle of the generation the snapshot
   was acquired against.

   HOPI_SOAK_ITERS (flips, default 12) and HOPI_SOAK_READERS (reader
   domains, default 3) scale the soak; CI runs it much larger. *)

module G = Hopi_serve.Generation
module Snapshot = Hopi_serve.Snapshot
module Cache = Hopi_serve.Label_cache
module Manifest = Hopi_storage.Manifest
module Collection = Hopi_collection.Collection
module Dblp = Hopi_workload.Dblp_gen
module Splitmix = Hopi_util.Splitmix
module Ihs = Hopi_util.Int_hashset
module Counter = Hopi_obs.Counter
module Hopi = Hopi_core.Hopi
module Gen = QCheck2.Gen

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let soak_iters =
  match Sys.getenv_opt "HOPI_SOAK_ITERS" with
  | Some s -> (try max 10 (int_of_string s) with _ -> 12)
  | None -> 12

let soak_readers =
  match Sys.getenv_opt "HOPI_SOAK_READERS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 3)
  | None -> 3

(* A fresh family base in the temp dir.  [Generation.create] adopts an
   existing file at [base] as generation 0, so the empty file
   [Filename.temp_file] makes must go before the family opens. *)
let with_gen_base f =
  let base = Filename.temp_file "hopi_test_live" ".db" in
  Sys.remove base;
  Fun.protect
    ~finally:(fun () ->
      let rm p = if Sys.file_exists p then Sys.remove p in
      rm (Manifest.path ~base);
      for k = 0 to 64 do
        rm (Manifest.gen_path ~base k)
      done)
    (fun () -> f base)

let small_collection ?(n = 6) seed =
  Dblp.generate { (Dblp.default ~n_docs:n) with seed }

let elements c =
  let acc = ref [] in
  Collection.iter_elements c (fun e -> acc := e :: !acc);
  Array.of_list (List.sort compare !acc)

(* an ordered pair of doc roots the index does not connect (yet) *)
let unconnected_pair idx =
  let c = Hopi.collection idx in
  let roots = List.map (Collection.doc_root_element c) (Collection.doc_ids c) in
  let pairs =
    List.concat_map (fun u -> List.map (fun v -> (u, v)) roots) roots
  in
  match
    List.find_opt (fun (u, v) -> u <> v && not (Hopi.connected idx u v)) pairs
  with
  | Some p -> p
  | None -> Alcotest.fail "no unconnected doc-root pair left"

(* enough of an op to tell failures apart *)
let op_name = function
  | G.Add_link (u, v) -> Printf.sprintf "add-link %d %d" u v
  | G.Del_link (u, v) -> Printf.sprintf "del-link %d %d" u v
  | G.Add_doc { name; _ } -> "add-doc " ^ name
  | G.Del_doc name -> "del-doc " ^ name
  | G.Add_element { doc; parent; tag } -> Printf.sprintf "add-element %d %d %s" doc parent tag
  | G.Del_subtree e -> Printf.sprintf "del-subtree %d" e

let apply_ok gen op =
  match G.apply gen op with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: %s" (op_name op) e

(* {1 Lifecycle} *)

let test_lifecycle () =
  with_gen_base @@ fun base ->
  let idx = Hopi.create (small_collection 31) in
  let gen = G.create ~fsync:false ~cache_mb:4 ~base idx in
  Fun.protect ~finally:(fun () -> G.close gen) @@ fun () ->
  checki "live starts at 0" 0 (G.live gen);
  checki "tip starts at 0" 0 (G.tip gen);
  checki "one retained generation" 1 (G.retained gen);
  checki "no pending ops" 0 (G.pending_ops gen);
  let u, v = unconnected_pair idx in
  apply_ok gen (G.Add_link (u, v));
  checki "one pending op" 1 (G.pending_ops gen);
  (* churn lives in the writer index; serving is pinned to generation 0 *)
  G.with_snapshot gen (fun snap ->
      checki "epoch 0 before flip" 0 (Snapshot.epoch snap);
      checkb "pre-flip snapshot blind to churn" false (Snapshot.connected snap u v));
  let st = G.flip gen in
  checki "flip publishes generation 1" 1 st.G.generation;
  checkb "churn dirtied nodes" true (st.G.dirtied > 0);
  checki "live is 1" 1 (G.live gen);
  checki "previous is 0" 0 (G.previous gen);
  checki "tip is 1" 1 (G.tip gen);
  checki "pending drained by the flip" 0 (G.pending_ops gen);
  G.with_snapshot gen (fun snap ->
      checki "epoch 1 after flip" 1 (Snapshot.epoch snap);
      checkb "post-flip snapshot serves the link" true (Snapshot.connected snap u v));
  (* rollback swaps serving only; the writer index keeps its state *)
  checki "rollback serves generation 0" 0 (G.rollback gen);
  G.with_snapshot gen (fun snap ->
      checki "rolled-back epoch" 0 (Snapshot.epoch snap);
      checkb "rolled-back serving predates the link" false
        (Snapshot.connected snap u v));
  checki "a second rollback swaps forward" 1 (G.rollback gen);
  (* generation numbers never rewind: the next flip writes tip + 1 *)
  let u2, v2 = unconnected_pair idx in
  apply_ok gen (G.Add_link (u2, v2));
  let st2 = G.flip gen in
  checki "next flip publishes tip+1" 2 st2.G.generation;
  G.with_snapshot gen (fun snap ->
      checkb "both rounds of churn served" true
        (Snapshot.connected snap u v && Snapshot.connected snap u2 v2))

let test_reader_pins_generation () =
  with_gen_base @@ fun base ->
  let c = small_collection 32 in
  let idx = Hopi.create c in
  let gen = G.create ~fsync:false ~cache_mb:2 ~retain:0 ~base idx in
  Fun.protect ~finally:(fun () -> G.close gen) @@ fun () ->
  let pinned = G.acquire gen in
  checki "pinned epoch" 0 (Snapshot.epoch pinned);
  let some_root = Collection.doc_root_element c (List.hd (Collection.doc_ids c)) in
  for _ = 1 to 4 do
    let u, v = unconnected_pair idx in
    apply_ok gen (G.Add_link (u, v));
    ignore (G.flip gen)
  done;
  (* open: live 4, previous 3, and generation 0 pinned by the reader *)
  checki "live advanced" 4 (G.live gen);
  checki "retained = live + rollback + pinned" 3 (G.retained gen);
  checkb "pinned snapshot still answers" true (Snapshot.connected pinned some_root some_root);
  checki "pinned snapshot kept its epoch" 0 (Snapshot.epoch pinned);
  (* retain 0: drained generations out of the live/rollback pair lose
     their store files; the base file (generation 0) is never deleted *)
  checkb "gen 1 file deleted" false (Sys.file_exists (Manifest.gen_path ~base 1));
  checkb "gen 2 file deleted" false (Sys.file_exists (Manifest.gen_path ~base 2));
  checkb "rollback target kept" true (Sys.file_exists (Manifest.gen_path ~base 3));
  checkb "live file kept" true (Sys.file_exists (Manifest.gen_path ~base 4));
  checkb "generation 0 file never deleted" true (Sys.file_exists base);
  G.release gen pinned;
  checki "release closes the drained generation" 2 (G.retained gen)

(* {1 Flip-time cache invalidation} *)

let test_flip_cache_invalidation () =
  with_gen_base @@ fun base ->
  let c = Collection.create () in
  let add name xml =
    match Collection.add_document_xml c ~name xml with
    | Ok id -> id
    | Error _ -> Alcotest.fail ("cannot parse " ^ name)
  in
  (* two disconnected documents: churn in the first cannot touch labels of
     the second *)
  let d1 = add "a.xml" "<r><x/><y/></r>" in
  let d2 = add "b.xml" "<s><t/></s>" in
  let idx = Hopi.create c in
  let gen = G.create ~fsync:false ~cache_mb:4 ~base idx in
  Fun.protect ~finally:(fun () -> G.close gen) @@ fun () ->
  let r1 = Collection.doc_root_element c d1 in
  let x, y =
    match Collection.children c r1 with
    | [ x; y ] -> (x, y)
    | _ -> Alcotest.fail "unexpected shape of a.xml"
  in
  let r2 = Collection.doc_root_element c d2 in
  let t2 = List.hd (Collection.children c r2) in
  let cache = G.cache gen in
  (* warm label entries for nodes of both documents (version 0 keys);
     the interval answers x !-> y without a fetch, so Lout x and Lin y
     are warmed through the snapshot's label fetch *)
  G.with_snapshot gen (fun snap ->
      checkb "x !-> y yet" false (Snapshot.connected snap x y);
      ignore (Snapshot.label snap Cache.Lout x);
      ignore (Snapshot.label snap Cache.Lin y);
      checkb "r2 -> t2" true (Snapshot.connected snap r2 t2));
  let key dir n = Cache.key ~version:0 dir n in
  checkb "Lout x warmed" true (Cache.find cache (key Cache.Lout x) <> None);
  checkb "Lin y warmed" true (Cache.find cache (key Cache.Lin y) <> None);
  checkb "Lout r2 warmed" true (Cache.find cache (key Cache.Lout r2) <> None);
  checkb "Lin t2 warmed" true (Cache.find cache (key Cache.Lin t2) <> None);
  let entries_before = Cache.entries cache in
  let invalidations () =
    Counter.get (Hopi_obs.Registry.counter "hopi_serve_cache_invalidations_total")
  in
  let i0 = invalidations () in
  apply_ok gen (G.Add_link (x, y));
  let st = G.flip gen in
  checkb "touched entries evicted" true (st.G.invalidated > 0);
  checki "invalidation counter moved with the flip" (i0 + st.G.invalidated)
    (invalidations ());
  (* exactly the invalidated entries disappeared — no full flush, and the
     cost accounting stayed balanced entry by entry *)
  checki "only touched entries dropped" (entries_before - st.G.invalidated)
    (Cache.entries cache);
  checkb "untouched Lout r2 survives" true (Cache.find cache (key Cache.Lout r2) <> None);
  checkb "untouched Lin t2 survives" true (Cache.find cache (key Cache.Lin t2) <> None);
  (* the new generation answers correctly, twice (second pass is the warm
     path through freshly versioned keys) *)
  G.with_snapshot gen (fun snap ->
      checkb "x -> y served cold" true (Snapshot.connected snap x y);
      checkb "x -> y served warm" true (Snapshot.connected snap x y);
      checkb "r2 -> t2 still served" true (Snapshot.connected snap r2 t2))

(* {1 The op protocol} *)

let test_parse_op () =
  let ok line want =
    match G.parse_op line with
    | Ok op -> checkb line true (op = want)
    | Error e -> Alcotest.fail (line ^ ": " ^ e)
  in
  ok "add-link 1 2" (G.Add_link (1, 2));
  ok "  del-link   3   4 " (G.Del_link (3, 4));
  (* add-doc keeps the raw XML remainder *)
  ok "add-doc a.xml <r><x/> <y/></r>" (G.Add_doc { name = "a.xml"; xml = "<r><x/> <y/></r>" });
  ok "del-doc a.xml" (G.Del_doc "a.xml");
  ok "add-element 0 3 sec" (G.Add_element { doc = 0; parent = 3; tag = "sec" });
  ok "del-subtree 9" (G.Del_subtree 9);
  List.iter
    (fun line ->
      match G.parse_op line with
      | Ok _ -> Alcotest.failf "should not parse %S" line
      | Error _ -> ())
    [
      ""; "   "; "add-link 1"; "add-link one two"; "del-link 1 2 3";
      "add-doc"; "add-doc a.xml"; "del-doc"; "add-element 0 x t";
      "del-subtree"; "flip"; "nonsense 1";
    ]

let test_apply_errors () =
  with_gen_base @@ fun base ->
  let c = Collection.create () in
  (match Collection.add_document_xml c ~name:"a.xml" "<r><x/></r>" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "cannot parse a.xml");
  let idx = Hopi.create c in
  let gen = G.create ~fsync:false ~cache_mb:1 ~base idx in
  Fun.protect ~finally:(fun () -> G.close gen) @@ fun () ->
  let rejected op =
    match G.apply gen op with
    | Ok msg ->
      Alcotest.failf "%s: accepted (%s)" (op_name op) msg
    | Error e -> checkb "error message not empty" true (String.length e > 0)
  in
  rejected (G.Del_doc "missing.xml");
  rejected (G.Add_doc { name = "a.xml"; xml = "<z/>" });
  rejected (G.Add_doc { name = "bad.xml"; xml = "<r><unclosed>" });
  (* regression: del-subtree of a document root must be rejected *before*
     any cover surgery — it used to gut the labels and then fail the
     collection-side validation, leaving the index silently corrupt *)
  let root_a =
    Collection.doc_root_element c (Option.get (Collection.find_doc c "a.xml"))
  in
  rejected (G.Del_subtree root_a);
  rejected (G.Del_subtree 999_999);
  checkb "rejected root deletion left the index exact" true
    (Hopi.self_check idx);
  checkb "root still answers self-reachability" true
    (Hopi.connected idx root_a root_a);
  checki "failed ops leave no lag" 0 (G.pending_ops gen);
  apply_ok gen (G.Add_doc { name = "b.xml"; xml = "<b><c/></b>" });
  checki "successful op counts" 1 (G.pending_ops gen);
  ignore (G.flip gen);
  let rb =
    Collection.doc_root_element c (Option.get (Collection.find_doc c "b.xml"))
  in
  G.with_snapshot gen (fun snap ->
      checkb "new document served after the flip" true (Snapshot.connected snap rb rb))

(* {1 Differential: live churn = offline replay + rebuild}

   The same deterministic base collection twice: one copy churned live
   (interleaved with flips), a twin replaying exactly the accepted ops
   cold, then rebuilt from scratch.  Final served answers must be
   identical over every element pair. *)

let prop_live_equals_offline =
  QCheck2.Test.make ~name:"live churn = offline replay + rebuild" ~count:8
    (Gen.int_range 0 1_000_000) (fun seed ->
      with_gen_base @@ fun base ->
      let mk () = Hopi.create (small_collection ~n:4 1234) in
      let idx = mk () in
      let gen = G.create ~fsync:false ~cache_mb:4 ~base idx in
      Fun.protect ~finally:(fun () -> G.close gen) @@ fun () ->
      let c = Hopi.collection idx in
      let rng = Splitmix.create seed in
      let fresh = ref 0 in
      let applied = ref [] in
      for step = 1 to 24 do
        let es = elements c in
        let pick () = es.(Splitmix.int rng (Array.length es)) in
        let op =
          match Splitmix.int rng 8 with
          | 0 | 1 | 2 -> G.Add_link (pick (), pick ())
          | 3 -> G.Del_link (pick (), pick ())
          | 4 ->
            incr fresh;
            G.Add_doc
              {
                name = Printf.sprintf "live_%d.xml" !fresh;
                xml = "<doc><sec><p/></sec><sec/></doc>";
              }
          | 5 | 6 ->
            let e = pick () in
            G.Add_element
              { doc = Collection.doc_of_element c e; parent = e; tag = "z" }
          | _ -> G.Del_subtree (pick ())
        in
        (match G.apply gen op with
        | Ok _ -> applied := op :: !applied
        | Error _ -> ());
        if step mod 9 = 0 then ignore (G.flip gen)
      done;
      ignore (G.flip gen);
      let twin = mk () in
      List.iter
        (fun op ->
          match G.apply_to_index twin op with
          | Ok _ -> ()
          | Error e ->
            QCheck2.Test.fail_reportf "twin rejected %s: %s"
              (op_name op) e)
        (List.rev !applied);
      ignore (Hopi.rebuild twin);
      if not (Hopi.self_check twin) then
        QCheck2.Test.fail_report "twin cover fails its BFS self-check";
      let tc = Hopi.collection twin in
      if Collection.n_elements tc <> Collection.n_elements c then
        QCheck2.Test.fail_reportf "element counts diverged: live %d, twin %d"
          (Collection.n_elements c) (Collection.n_elements tc);
      let dom = elements tc in
      G.with_snapshot gen (fun snap ->
          Array.iter
            (fun u ->
              Array.iter
                (fun v ->
                  if Snapshot.connected snap u v <> Hopi.connected twin u v then
                    QCheck2.Test.fail_reportf
                      "live generation %d and offline twin disagree on %d -> %d"
                      (Snapshot.epoch snap) u v)
                dom)
            dom);
      true)

(* {1 Churn under load}

   [soak_readers] domains query continuously through acquire/release while
   the writer applies link churn and flips at least [soak_iters] times
   (with periodic rollbacks).  Before each flip the writer publishes the
   BFS-oracle answer matrix of the generation it is about to serve;
   readers check every answer against the oracle of the epoch their
   snapshot reports.  Zero mismatches, zero failed queries, and the flip
   count are the acceptance criteria. *)

let test_churn_soak () =
  with_gen_base @@ fun base ->
  let c = small_collection ~n:8 4242 in
  let idx = Hopi.create c in
  let gen = G.create ~fsync:false ~cache_mb:8 ~base idx in
  let dom = elements c in
  let n = Array.length dom in
  let matrix () =
    Array.map (fun u -> Array.map (fun v -> Hopi.connected idx u v) dom) dom
  in
  let max_gens = (2 * soak_iters) + 8 in
  (* oracle publication order: the writer stores the matrix for generation
     [g] before the flip that makes [g] acquirable; the flip's own lock
     hand-off is the happens-before edge to every reader *)
  let oracles = Array.make max_gens None in
  oracles.(0) <- Some (matrix ());
  let stop = Atomic.make false in
  let total_queries = Atomic.make 0 in
  let failures = Atomic.make 0 in
  let err_mu = Mutex.create () in
  let errs = ref [] in
  let record_err msg =
    Atomic.incr failures;
    Mutex.lock err_mu;
    if List.length !errs < 5 then errs := msg :: !errs;
    Mutex.unlock err_mu
  in
  let epochs_seen = Array.init soak_readers (fun _ -> Ihs.create ()) in
  let reader k =
    Domain.spawn (fun () ->
        let rng = Splitmix.create (0xBEEF + (k * 7919)) in
        let seen = epochs_seen.(k) in
        try
          while not (Atomic.get stop) do
            G.with_snapshot gen (fun snap ->
                let e = Snapshot.epoch snap in
                Ihs.add seen e;
                match oracles.(e) with
                | None ->
                  record_err
                    (Printf.sprintf "reader %d: no oracle for epoch %d" k e)
                | Some m ->
                  for _ = 1 to 64 do
                    let i = Splitmix.int rng n and j = Splitmix.int rng n in
                    let got = Snapshot.connected snap dom.(i) dom.(j) in
                    if got <> m.(i).(j) then
                      record_err
                        (Printf.sprintf
                           "reader %d: epoch %d answers %d -> %d as %b, oracle \
                            says %b"
                           k e dom.(i) dom.(j) got m.(i).(j));
                    Atomic.incr total_queries
                  done)
          done
        with exn ->
          record_err
            (Printf.sprintf "reader %d died: %s" k (Printexc.to_string exn)))
  in
  let readers = List.init soak_readers reader in
  (* wait until the given total query count has been served, so every
     inter-flip window sees real read traffic; bail out if readers died *)
  let wait_queries target =
    while Atomic.get total_queries < target && Atomic.get failures = 0 do
      Domain.cpu_relax ()
    done
  in
  let finished = ref false in
  let finish () =
    if not !finished then begin
      finished := true;
      Atomic.set stop true;
      List.iter Domain.join readers
    end
  in
  Fun.protect ~finally:(fun () -> G.close gen) @@ fun () ->
  Fun.protect ~finally:finish @@ fun () ->
  wait_queries (64 * soak_readers);
  let rng = Splitmix.create 77 in
  let links = ref [] in
  let flips = ref 0 in
  while !flips < soak_iters && Atomic.get failures = 0 do
    (* a burst of link churn: mostly inserts, some deletes of links we
       added earlier (tree edges are never deleted) *)
    for _ = 1 to 6 do
      match !links with
      | (u, v) :: rest when Splitmix.int rng 4 = 0 ->
        links := rest;
        ignore (G.apply gen (G.Del_link (u, v)))
      | _ ->
        let u = dom.(Splitmix.int rng n) and v = dom.(Splitmix.int rng n) in
        (match G.apply gen (G.Add_link (u, v)) with
        | Ok _ -> links := (u, v) :: !links
        | Error _ -> ())
    done;
    let g_next = G.tip gen + 1 in
    oracles.(g_next) <- Some (matrix ());
    let st = G.flip gen in
    checki "flip publishes the announced generation" g_next st.G.generation;
    incr flips;
    (* exercise the rollback path under load: serve the previous
       generation briefly, then swap forward again *)
    if !flips mod 5 = 0 then begin
      ignore (G.rollback gen);
      wait_queries (Atomic.get total_queries + (256 * soak_readers));
      ignore (G.rollback gen)
    end;
    wait_queries (Atomic.get total_queries + (256 * soak_readers))
  done;
  finish ();
  (match !errs with
  | [] -> ()
  | msgs ->
    Alcotest.failf "%d soak failures, e.g.:\n  %s" (Atomic.get failures)
      (String.concat "\n  " (List.rev msgs)));
  checkb "at least 10 flips" true (!flips >= 10);
  checki "zero failed or inconsistent queries" 0 (Atomic.get failures);
  checkb "readers made progress" true (Atomic.get total_queries > 0);
  let distinct_epochs =
    let u = Ihs.create () in
    Array.iter (fun s -> List.iter (Ihs.add u) (Ihs.to_list s)) epochs_seen;
    List.length (Ihs.to_list u)
  in
  checkb "reads spanned multiple generations" true (distinct_epochs >= 2);
  checki "served generation is the tip" (G.tip gen) (G.live gen)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "serve.generation",
      [
        Alcotest.test_case "apply/flip/rollback lifecycle" `Quick test_lifecycle;
        Alcotest.test_case "readers pin generations; files swept" `Quick
          test_reader_pins_generation;
        Alcotest.test_case "flip invalidates touched cache entries only" `Quick
          test_flip_cache_invalidation;
        Alcotest.test_case "op protocol parsing" `Quick test_parse_op;
        Alcotest.test_case "failed ops are reported and leave no state" `Quick
          test_apply_errors;
      ]
      @ qsuite [ prop_live_equals_offline ] );
    ( "serve.soak",
      [ Alcotest.test_case "churn under load" `Slow test_churn_soak ] );
  ]
