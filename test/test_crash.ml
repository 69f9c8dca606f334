(* Crash-safety tests: drive the storage engine through a fault-injecting
   Vfs and check the publication contract — after a crash at ANY point of
   writing a page file over an existing one, the path reopens to either
   the previous file or the completed new one, never to a mixture or to
   silent corruption.

   HOPI_FAULT_ITERS scales the qcheck soak (CI runs it much larger than the
   default `dune runtest`). *)

open Hopi_storage
module Fv = Hopi_fault_vfs.Fault_vfs
module Splitmix = Hopi_util.Splitmix
module Digraph = Hopi_graph.Digraph
module Closure = Hopi_graph.Closure
module Cover = Hopi_twohop.Cover

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let iters =
  match Sys.getenv_opt "HOPI_FAULT_ITERS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 30)
  | None -> 30

let path = "crash.db"

(* a deterministic random graph over [n] nodes with [m] edge draws *)
let random_graph ~seed ~n ~m =
  let rng = Splitmix.create seed in
  let g = Digraph.create () in
  for v = 0 to n - 1 do
    Digraph.add_node g v
  done;
  for _ = 1 to m do
    let u = Splitmix.int rng n and v = Splitmix.int rng n in
    if u <> v then Digraph.add_edge g u v
  done;
  g

let domain = List.init 16 Fun.id

let cover_matrix cover dom =
  List.map (fun u -> List.map (fun v -> Cover.connected cover u v) dom) dom

(* Write [cover] as a store at [file]: each page goes to the temp file as
   soon as it is built, long before the commit publishes it. *)
let publish_store vfs file cover =
  let pgr = Pager.create_vfs ~vfs file in
  Cover_store.save (Cover_store.of_cover pgr cover);
  Pager.close pgr

let cover_of g = fst (Hopi_twohop.Builder.build (Closure.compute g))

(* the base store and the larger one published over it *)
let cover_a () = cover_of (random_graph ~seed:7 ~n:16 ~m:30)

let cover_b () = cover_of (random_graph ~seed:8 ~n:2000 ~m:1500)

(* The file at [file] as a reader sees it: every page CRC-checked and
   digested, plus the store's answers over [dom]. *)
let reopen vfs file dom =
  let pgr = Pager.open_existing ~pool_pages:8 ~vfs file in
  Fun.protect ~finally:(fun () -> Pager.close pgr) @@ fun () ->
  if Pager.verify_pages pgr <> [] then failwith "corrupt page after recovery";
  let digests =
    List.init (Pager.n_pages pgr) (fun id ->
        Digest.subbytes (Pager.read pgr id) Page.payload_off (Page.size - Page.payload_off))
  in
  let st = Cover_store.open_pager pgr in
  (digests, List.map (fun u -> List.map (Cover_store.connected st u) dom) dom)

let setup () =
  let fv = Fv.create () in
  let vfs = Fv.vfs fv in
  let cover = cover_a () in
  publish_store vfs path cover;
  let s1 = Fv.snapshot fv in
  (fv, vfs, cover, s1)

let test_crash_matrix () =
  let fv, vfs, cover, s1 = setup () in
  let old_image = reopen vfs path domain in
  (* the base store answers like the in-memory cover it was written from *)
  check_bool "base store = cover" true (snd old_image = cover_matrix cover domain);
  (* probe the op count of a fault-free publication over it *)
  let cover' = cover_b () in
  Fv.reset_ops fv;
  (* [publish_store], with a look at the pager before its commit: pages
     must reach the temp file before it, so the matrix also crashes
     between mid-publication page writes and not only around the final
     commit *)
  let pgr = Pager.create_vfs ~vfs path in
  let st = Cover_store.of_cover pgr cover' in
  check_bool "pages reach the temp file before the commit" true
    ((Pager.stats pgr).Pager.disk_writes > 0);
  Cover_store.save st;
  Pager.close pgr;
  let n_ops = Fv.op_count fv in
  let new_image = reopen vfs path domain in
  check_bool "publication does real I/O" true (n_ops > 10);
  check_bool "the new store answers like its cover" true
    (snd new_image = cover_matrix cover' domain);
  check_bool "the two stores answer differently" true (snd old_image <> snd new_image);
  check_bool "no temp file outlives a publication" false (vfs.Vfs.exists (Vfs.tmp_path path));
  (* crash at every op index, under every crash mode, with and without a
     torn in-flight write.  The last counted op is the rename — the commit
     point itself — so k ranges over [0, n_ops]: every proper prefix of
     the publication, plus the boundary case where the armed crash never
     fires *)
  let outcomes = ref (0, 0) in
  List.iter
    (fun (mode, tear) ->
      for k = 0 to n_ops do
        Fv.restore fv s1;
        Fv.reset_ops fv;
        Fv.arm_crash fv ~op:k ~mode ?tear ();
        (match publish_store vfs path cover' with
        | () ->
          if k < n_ops then Alcotest.failf "crash at op %d did not fire" k;
          Fv.disarm fv
        | exception Fv.Crash ->
          if k = n_ops then Alcotest.failf "spurious crash beyond op %d" k);
        let img = reopen vfs path domain in
        if img = old_image then begin
          outcomes := (fst !outcomes + 1, snd !outcomes);
          (* the stale temp file of the interrupted publication is
             truncated by the next one, which then completes cleanly *)
          publish_store vfs path cover';
          if reopen vfs path domain <> new_image then
            Alcotest.failf "republishing after a crash at op %d went wrong" k
        end
        else if img = new_image then outcomes := (fst !outcomes, snd !outcomes + 1)
        else Alcotest.failf "crash at op %d recovered to a third image" k
      done)
    [
      (Fv.Drop_unsynced, None);
      (Fv.Keep_unsynced, None);
      (Fv.Drop_unsynced, Some 37);  (* tear in-flight writes at a byte boundary *)
    ];
  (* nothing reaches the path before the rename, so every interrupted
     publication keeps the old file and only the completed one (k = n_ops)
     shows the new file *)
  let pre, post = !outcomes in
  check_int "every interrupted publication keeps the old file" (3 * n_ops) pre;
  check_int "completed publications show the new file" 3 post

let test_fail_nth_write () =
  let fv, vfs, _, s1 = setup () in
  let old_image = reopen vfs path domain in
  let cover' = cover_b () in
  Fv.reset_ops fv;
  publish_store vfs path cover';
  let n_writes = Fv.write_count fv in
  check_bool "publication writes" true (n_writes > 1);
  (* a reported I/O error (no crash) at every write of the publication:
     typed Storage_error, and the path still holds the old file.  The
     index just past the last write never fires, so that run completes. *)
  for n = 0 to n_writes do
    Fv.restore fv s1;
    Fv.reset_ops fv;
    Fv.arm_fail_write fv ~n;
    match publish_store vfs path cover' with
    | () ->
      if n < n_writes then Alcotest.failf "injected failure on write %d did not surface" n;
      Fv.disarm fv
    | exception Storage_error.Storage_error (Storage_error.Io _) ->
      if n = n_writes then Alcotest.failf "spurious write failure beyond write %d" n;
      check_bool "the old file survives a failed write" true
        (reopen vfs path domain = old_image)
    | exception e ->
      Alcotest.failf "expected Storage_error (Io _), got %s" (Printexc.to_string e)
  done

let test_byte_flip_detected () =
  let fv, vfs, _, s1 = setup () in
  ignore s1;
  let n_bytes = Fv.durable_size fv path in
  let n_pages = n_bytes / Page.size in
  check_bool "store has pages" true (n_pages > 1);
  for id = 0 to n_pages - 1 do
    (* hit a different in-page offset each time: CRC field, flag byte and
       sliding payload positions are all covered across pages *)
    let in_page = id * 131 mod Page.size in
    Fv.restore fv s1;
    Fv.corrupt_byte fv path ~off:((id * Page.size) + in_page);
    let pgr = Pager.open_existing ~pool_pages:8 ~vfs path in
    check_int
      (Printf.sprintf "flip in page %d at +%d detected" id in_page)
      1
      (List.length (Pager.verify_pages pgr));
    check_bool "the right page is reported" true (Pager.verify_pages pgr = [ id ])
  done;
  (* a flipped catalog byte is also rejected on the normal open path *)
  Fv.restore fv s1;
  Fv.corrupt_byte fv path ~off:(Page.payload_off + 1);
  let pgr = Pager.open_existing ~pool_pages:8 ~vfs path in
  check_bool "catalog checksum failure raised" true
    (match Cover_store.open_pager pgr with
    | _ -> false
    | exception Storage_error.Storage_error (Storage_error.Checksum { page = 0 }) -> true)

(* qcheck soak: a random store published over another random store at
   the same path, crashing at a random op under a random mode/tear — the
   path must reopen to exactly the old or the new file, answering like
   the matching in-memory cover *)
let prop_crash_soak =
  let gen =
    QCheck2.Gen.(
      quad (int_range 0 1_000_000) (int_range 0 100_000) bool (int_bound (Page.size - 1)))
  in
  QCheck2.Test.make ~name:"crash soak: recovery is pre- or post-commit" ~count:iters gen
    (fun (seed, kpick, drop, tear_at) ->
      let fv = Fv.create () in
      let vfs = Fv.vfs fv in
      let rng = Splitmix.create seed in
      let n = 4 + Splitmix.int rng 8 in
      let random_cover s = cover_of (random_graph ~seed:s ~n ~m:(Splitmix.int rng (3 * n))) in
      let c1 = random_cover seed and c2 = random_cover (seed lxor 0x5EED) in
      let dom = List.init n Fun.id in
      publish_store vfs "soak.db" c1;
      let s1 = Fv.snapshot fv in
      let old_image = reopen vfs "soak.db" dom in
      if snd old_image <> cover_matrix c1 dom then failwith "stored base differs from its cover";
      Fv.reset_ops fv;
      publish_store vfs "soak.db" c2;
      let n_ops = Fv.op_count fv in
      let new_image = reopen vfs "soak.db" dom in
      if snd new_image <> cover_matrix c2 dom then failwith "new store differs from its cover";
      Fv.restore fv s1;
      Fv.reset_ops fv;
      let mode = if drop then Fv.Drop_unsynced else Fv.Keep_unsynced in
      let tear = if seed mod 3 = 0 then Some tear_at else None in
      Fv.arm_crash fv ~op:(kpick mod n_ops) ~mode ?tear ();
      (match publish_store vfs "soak.db" c2 with
      | () -> failwith "crash did not fire"
      | exception Fv.Crash -> ());
      let img = reopen vfs "soak.db" dom in
      img = old_image || img = new_image)

(* {1 Generation-flip crash matrix}

   The zero-downtime flip publishes a new generation store, then
   publishes a one-page manifest naming it; the manifest rename is the
   only atomic point.  Crash at every I/O op of [Manifest.publish] and
   [Manifest.rollback]: recovery must yield a manifest naming either the
   old or the new generation in full, with the named store file intact —
   never a mixture — and leave no file but the family's live ones. *)

let gen_base = "live.db"

let gen_dom = List.init 16 Fun.id

(* generation 0 is a 16-node chain; the churned generation closes it into
   a cycle — guaranteed to answer every (v, u<v) pair differently *)
(* a 16-node chain, plus a sparse random graph on nodes 16.. that makes
   a generation store span several pages *)
let chain_graph () =
  let g = Digraph.create () in
  for v = 0 to 15 do
    Digraph.add_node g v
  done;
  for v = 0 to 14 do
    Digraph.add_edge g v (v + 1)
  done;
  let rng = Splitmix.create 9 in
  for v = 16 to 1215 do
    Digraph.add_node g v
  done;
  for _ = 1 to 900 do
    let u = 16 + Splitmix.int rng 1200 and v = 16 + Splitmix.int rng 1200 in
    if u <> v then Digraph.add_edge g u v
  done;
  g

let churned_graph () =
  let g = chain_graph () in
  Digraph.add_edge g 15 0;
  g

let gen_matrix vfs live =
  let pgr = Pager.open_existing ~pool_pages:8 ~vfs (Manifest.gen_path ~base:gen_base live) in
  Fun.protect ~finally:(fun () -> Pager.close pgr) @@ fun () ->
  let st = Cover_store.open_pager pgr in
  let m = List.map (fun u -> List.map (Cover_store.connected st u) gen_dom) gen_dom in
  check_int "generation store verifies clean" 0 (List.length (Pager.verify_pages pgr));
  m

let publish_churned vfs =
  let cover, _ = Hopi_twohop.Builder.build (Closure.compute (churned_graph ())) in
  Manifest.publish ~vfs ~base:gen_base
    ~load:(fun pgr -> Cover_store.save (Cover_store.of_cover pgr cover))
    ()

(* after [Manifest.recover], the volume holds the family's live files and
   nothing else: no temp file, no unreachable generation *)
let check_only_live vfs k gens =
  let expect =
    List.sort compare
      (Manifest.path ~base:gen_base :: List.map (Manifest.gen_path ~base:gen_base) gens)
  in
  if vfs.Vfs.list_dir "." <> expect then
    Alcotest.failf "crash at op %d: recovery left [%s], expected [%s]" k
      (String.concat "; " (vfs.Vfs.list_dir "."))
      (String.concat "; " expect)

(* a crash may fire inside a [Fun.protect] finally (pager close), where the
   stdlib wraps it — both shapes are the same simulated power cut *)
let run_crashing f =
  match f () with
  | _ -> `Completed
  | exception Fv.Crash -> `Crashed
  | exception Fun.Finally_raised Fv.Crash -> `Crashed

let setup_family () =
  let fv = Fv.create () in
  let vfs = Fv.vfs fv in
  check_bool "no manifest on a fresh volume" true
    (Manifest.recover ~vfs ~base:gen_base () = None);
  let cover, _ = Hopi_twohop.Builder.build (Closure.compute (chain_graph ())) in
  let pgr = Pager.create_vfs ~vfs gen_base in
  Cover_store.save (Cover_store.of_cover pgr cover);
  Pager.close pgr;
  Manifest.commit ~vfs ~base:gen_base { Manifest.live = 0; previous = 0; tip = 0 };
  (fv, vfs)

let test_flip_crash_matrix () =
  let fv, vfs = setup_family () in
  let s0 = Fv.snapshot fv in
  let a0 = gen_matrix vfs 0 in
  (* probe a fault-free publish for its op count and the new answers *)
  Fv.reset_ops fv;
  let m1 = publish_churned vfs in
  let n_ops = Fv.op_count fv in
  check_bool "publish does real I/O" true (n_ops > 10);
  check_int "publish serves the new generation" 1 m1.Manifest.live;
  check_int "old generation is the rollback target" 0 m1.Manifest.previous;
  check_int "tip advanced" 1 m1.Manifest.tip;
  let a1 = gen_matrix vfs 1 in
  check_bool "churn changes the answers" true (a0 <> a1);
  let old_new = ref (0, 0) in
  List.iter
    (fun (mode, tear) ->
      for k = 0 to n_ops do
        Fv.restore fv s0;
        Fv.reset_ops fv;
        Fv.arm_crash fv ~op:k ~mode ?tear ();
        (match run_crashing (fun () -> publish_churned vfs) with
        | `Completed ->
          if k < n_ops then Alcotest.failf "crash at op %d did not fire" k;
          Fv.disarm fv
        | `Crashed ->
          if k = n_ops then Alcotest.failf "spurious crash beyond op %d" k);
        match Manifest.recover ~vfs ~base:gen_base () with
        | None -> Alcotest.failf "manifest lost after a crash at op %d" k
        | Some m ->
          (* the manifest is all-old or all-new — and the generation it
             names answers exactly like that side of the flip *)
          (match (m.Manifest.live, m.Manifest.previous, m.Manifest.tip) with
          | 0, 0, 0 ->
            old_new := (fst !old_new + 1, snd !old_new);
            if gen_matrix vfs 0 <> a0 then
              Alcotest.failf "crash at op %d corrupted the old generation" k;
            (* an interrupted publish may leave a stray tip+1 store and
               temp files; recovery must have deleted them *)
            check_only_live vfs k [ 0 ]
          | 1, 0, 1 ->
            old_new := (fst !old_new, snd !old_new + 1);
            if gen_matrix vfs 1 <> a1 then
              Alcotest.failf "crash at op %d corrupted the new generation" k;
            check_only_live vfs k [ 0; 1 ]
          | l, p, t ->
            Alcotest.failf "crash at op %d recovered to a mixed manifest {%d;%d;%d}"
              k l p t)
      done)
    [
      (Fv.Drop_unsynced, None);
      (Fv.Keep_unsynced, None);
      (Fv.Drop_unsynced, Some 37);
    ];
  let old_side, new_side = !old_new in
  check_int "matrix size" (3 * (n_ops + 1)) (old_side + new_side);
  check_bool "interrupted flips stay on the old generation" true (old_side > 0);
  check_bool "completed flips serve the new generation" true (new_side >= 3)

let test_rollback_crash_matrix () =
  let fv, vfs = setup_family () in
  ignore (publish_churned vfs);
  let a0 = gen_matrix vfs 0 and a1 = gen_matrix vfs 1 in
  let s1 = Fv.snapshot fv in
  (* probe a fault-free rollback *)
  Fv.reset_ops fv;
  let mr = Manifest.rollback ~vfs ~base:gen_base () in
  let n_ops = Fv.op_count fv in
  check_int "rollback serves the previous generation" 0 mr.Manifest.live;
  check_int "rollback keeps the flipped store" 1 mr.Manifest.previous;
  check_int "tip never rewinds" 1 mr.Manifest.tip;
  List.iter
    (fun mode ->
      for k = 0 to n_ops do
        Fv.restore fv s1;
        Fv.reset_ops fv;
        Fv.arm_crash fv ~op:k ~mode ();
        (match run_crashing (fun () -> Manifest.rollback ~vfs ~base:gen_base ()) with
        | `Completed ->
          if k < n_ops then Alcotest.failf "crash at op %d did not fire" k;
          Fv.disarm fv
        | `Crashed ->
          if k = n_ops then Alcotest.failf "spurious crash beyond op %d" k);
        match Manifest.recover ~vfs ~base:gen_base () with
        | None -> Alcotest.failf "manifest lost after a crash at op %d" k
        | Some m ->
          let expect =
            match (m.Manifest.live, m.Manifest.previous, m.Manifest.tip) with
            | 1, 0, 1 -> a1 (* rollback did not commit *)
            | 0, 1, 1 -> a0 (* rollback committed *)
            | l, p, t ->
              Alcotest.failf
                "crash at op %d recovered to a mixed manifest {%d;%d;%d}" k l p t
          in
          if gen_matrix vfs m.Manifest.live <> expect then
            Alcotest.failf "crash at op %d: generation %d answers wrong" k
              m.Manifest.live;
          check_only_live vfs k [ 0; 1 ]
      done)
    [ Fv.Drop_unsynced; Fv.Keep_unsynced ]

(* {1 Read-side faults}

   The shared read path (Snapshot over Pager's shared read-only pool)
   must surface injected read faults as typed [Storage_error]s — never as
   wrong answers — and a failed read must leave nothing poisoned in the
   pool: the same snapshot answers correctly once the fault clears. *)

module Snapshot = Hopi_serve.Snapshot

let snap_matrix snap =
  List.map (fun u -> List.map (fun v -> Snapshot.connected snap u v) domain) domain

let test_read_fault_matrix () =
  let fv, vfs, cover, _ = setup () in
  (* a fresh tiny single-shard pool per run: the cold workload is
     deterministic, so its read count is too *)
  let open_snap () =
    Snapshot.open_file
      ~pool:(Pager.Read_pool.create ~shards:1 ~pages:2 ())
      ~vfs ~cache_mb:0 path
  in
  let workload () =
    let snap = open_snap () in
    Fun.protect ~finally:(fun () -> Snapshot.close snap) @@ fun () ->
    snap_matrix snap
  in
  let oracle = workload () in
  List.iteri
    (fun i u ->
      List.iteri
        (fun j v ->
          check_bool
            (Printf.sprintf "cold snapshot %d->%d = cover" u v)
            (Cover.connected cover u v)
            (List.nth (List.nth oracle i) j))
        domain)
    domain;
  (* probe the read count of one fault-free cold workload *)
  Fv.reset_ops fv;
  ignore (workload ());
  let n_reads = Fv.read_count fv in
  check_bool "cold workload reads pages" true (n_reads > 0);
  (* fail-read at every index: the typed Io error always surfaces — the
     deterministic workload performs exactly [n_reads] reads, so a
     swallowed fault (reaching the value branch) is a test failure *)
  for k = 0 to n_reads - 1 do
    Fv.reset_ops fv;
    Fv.arm_fail_read fv ~n:k;
    match workload () with
    | _ -> Alcotest.failf "injected failure on read %d did not surface" k
    | exception Storage_error.Storage_error (Storage_error.Io _) -> ()
    | exception e ->
      Alcotest.failf "read %d: expected Storage_error (Io _), got %s" k
        (Printexc.to_string e)
  done;
  (* torn reads (header survives, payload tail zeroed): the page checksum
     rejects the transfer — or, when the zeroed tail happens to be
     byte-identical to the stored page, the run completes and must answer
     exactly like the oracle.  Wrong answers are the one forbidden
     outcome. *)
  for k = 0 to n_reads - 1 do
    Fv.reset_ops fv;
    Fv.arm_torn_read fv ~n:k ~frag:37;
    match workload () with
    | m ->
      check_bool
        (Printf.sprintf "torn read %d never yields wrong answers" k)
        true (m = oracle)
    | exception Storage_error.Storage_error (Storage_error.Checksum _) -> ()
    | exception e ->
      Alcotest.failf "torn read %d: expected Storage_error (Checksum _), got %s"
        k (Printexc.to_string e)
  done;
  (* no pool poisoning: fault one read mid-query on a live snapshot, then
     re-ask everything on the same handle — the failed page was never
     admitted to the pool, so the retry re-reads it cleanly *)
  let snap = open_snap () in
  Fun.protect ~finally:(fun () -> Snapshot.close snap) @@ fun () ->
  Fv.reset_ops fv;
  Fv.arm_fail_read fv ~n:0;
  (match snap_matrix snap with
  | _ -> Alcotest.fail "armed read fault did not surface on the live snapshot"
  | exception Storage_error.Storage_error (Storage_error.Io _) -> ());
  check_bool "same snapshot recovers once the fault clears" true
    (snap_matrix snap = oracle)

(* a snapshot whose open fails after its pager is up — here a corrupt
   directory page, read when the directory is loaded — must release the
   pager: no fd left open, none of its pages left in the caller's pool *)
let test_failed_open_releases_pager () =
  let fv, vfs, _, _ = setup () in
  let dir_page =
    let pgr = Pager.open_existing ~pool_pages:8 ~vfs path in
    Fun.protect ~finally:(fun () -> Pager.close pgr) @@ fun () ->
    (Catalog.read pgr).Catalog.rows.dir_first
  in
  Fv.corrupt_byte fv path ~off:((dir_page * Page.size) + Page.payload_off + 1);
  let pool = Pager.Read_pool.create ~pages:16 () in
  (match Snapshot.open_file ~pool ~vfs ~cache_mb:0 path with
  | snap ->
    Snapshot.close snap;
    Alcotest.fail "a corrupt directory page went unnoticed"
  | exception Storage_error.Storage_error (Storage_error.Checksum { page }) ->
    check_int "the directory page is reported" dir_page page);
  check_int "no page of the failed open stays pooled" 0
    (Pager.Read_pool.stats pool).Pager.Read_pool.resident

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "storage.crash",
      [
        Alcotest.test_case "crash-at-every-step matrix" `Quick test_crash_matrix;
        Alcotest.test_case "injected write failure" `Quick test_fail_nth_write;
        Alcotest.test_case "flipped byte is detected" `Quick test_byte_flip_detected;
        Alcotest.test_case "read-fault matrix on the shared read path" `Quick
          test_read_fault_matrix;
        Alcotest.test_case "failed snapshot open releases its pager" `Quick
          test_failed_open_releases_pager;
        Alcotest.test_case "generation flip crash matrix" `Quick test_flip_crash_matrix;
        Alcotest.test_case "generation rollback crash matrix" `Quick
          test_rollback_crash_matrix;
      ]
      @ qsuite [ prop_crash_soak ] );
  ]
