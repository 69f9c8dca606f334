(* Generational store swap — see the interface for the serving model.

   Locking: [wmu] serialises the writer side (apply/flip/rollback) and is
   never held while answering queries; [mu] guards the slot table and is
   held only for pointer swaps and refcount arithmetic, so acquiring a
   snapshot costs one short critical section even while a flip is busy
   persisting megabytes.  Lock order is wmu -> mu; no query path takes
   wmu, which is what "serving never pauses" rests on.

   Cache versioning: [versions] maps a node to the generation of its last
   label change (0 for a node never changed since the family was opened).
   Each snapshot freezes a copy at open time, so the key a reader computes
   for a node can never drift while its batch runs; an entry cached under
   an old version is never *wrong*, merely unreachable once every snapshot
   of that vintage is gone — flip-time eviction is space reclamation, not a
   correctness mechanism.  Every label change reaches [dirty] through the
   cover's change hook, installed once in [create]: the index's cover is
   never replaced, because nothing outside [apply] mutates the index. *)

module S = Hopi_storage
module Hopi = Hopi_core.Hopi
module Collection = Hopi_collection.Collection
module Cover = Hopi_twohop.Cover
module Ihs = Hopi_util.Int_hashset
module Timer = Hopi_util.Timer
module Registry = Hopi_obs.Registry
module Counter = Hopi_obs.Counter
module Gauge = Hopi_obs.Gauge
module Histogram = Hopi_obs.Histogram

let g_live =
  Registry.gauge "hopi_serve_generation_live"
    ~help:"Generation currently being served"

let g_lag =
  Registry.gauge "hopi_serve_generation_lag_ops"
    ~help:"Applied maintenance operations not yet flipped into a served generation"

let g_retained =
  Registry.gauge "hopi_serve_generations_retained"
    ~help:"Generations currently open (live, rollback target, reader-pinned)"

let g_flip_last =
  Registry.gauge "hopi_serve_generation_flip_last_ns"
    ~help:"Duration of the most recent generation flip"

let h_flip =
  Registry.histogram "hopi_serve_generation_flip_duration_ns"
    ~help:"Generation flip durations (persist + manifest commit + swap)"

let c_flips =
  Registry.counter "hopi_serve_generation_flips_total"
    ~help:"Generation flips completed"

let c_rollbacks =
  Registry.counter "hopi_serve_generation_rollbacks_total"
    ~help:"Serving rollbacks to the previous generation"

let c_invalidated =
  Registry.counter "hopi_serve_generation_invalidated_total"
    ~help:"Label-cache entries evicted by flips because churn dirtied their node"

type slot = { id : int; snap : Snapshot.t; mutable refs : int }

type t = {
  base : string;
  index : Hopi.t;
  cache : Label_cache.t;
  page_pool : S.Pager.Read_pool.t; (* one read pool across all generations *)
  retain : int;
  fsync : bool;
  wmu : Mutex.t; (* writer side: apply/flip/rollback *)
  mu : Mutex.t; (* slot table, live pointer, manifest mirror *)
  dirty : Ihs.t; (* nodes whose labels changed since the last flip *)
  versions : (int, int) Hashtbl.t; (* node -> generation of last label change *)
  mutable manifest : S.Manifest.t;
  mutable live_slot : slot;
  mutable slots : slot list;
  mutable pending : int;
  mutable closed : bool;
}

let with_lock mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* {1 Persistence} *)

(* the maintenance since the last flip sits in the cover's overlay: the
   store write compacts it into the frozen base, then copies the rows *)
let persist_store idx pager = S.Cover_store.save (S.Cover_store.of_cover pager (Hopi.cover idx))

(* {1 Slots} *)

let version_in versions v = Option.value ~default:0 (Hashtbl.find_opt versions v)

let node_version_fn t = version_in (Hashtbl.copy t.versions)

let open_slot t g =
  let snap =
    Snapshot.open_file ~pool:t.page_pool ~cache:t.cache ~epoch:g
      ~node_version:(node_version_fn t)
      (S.Manifest.gen_path ~base:t.base g)
  in
  { id = g; snap; refs = 0 }

let protected t id =
  id = t.manifest.S.Manifest.live || id = t.manifest.S.Manifest.previous

(* Close drained, unprotected generations; delete files that fell out of
   the retain window.  Caller holds [mu]. *)
let sweep_locked t =
  let drop, keep =
    List.partition
      (fun s -> s.refs = 0 && not (s == t.live_slot) && not (protected t s.id))
      t.slots
  in
  List.iter
    (fun s ->
      Snapshot.close s.snap;
      if s.id >= 1 && s.id <= t.manifest.S.Manifest.tip - t.retain then begin
        try Sys.remove (S.Manifest.gen_path ~base:t.base s.id) with Sys_error _ -> ()
      end)
    drop;
  t.slots <- keep;
  Gauge.set g_retained (List.length keep)

(* {1 Lifecycle} *)

let create ?(pool_pages = 4096) ?(cache_mb = 64) ?(retain = 2) ?(fsync = true) ~base index =
  let cache = Label_cache.create ~capacity_bytes:(cache_mb * 1024 * 1024) () in
  (* one shared read pool for every generation this family will serve,
     bounding their page memory together; a flip's new store file attaches
     under a fresh tag and starts cold, the label cache is what stays warm *)
  let page_pool = S.Pager.Read_pool.create ~pages:pool_pages () in
  let manifest =
    match S.Manifest.recover ~base () with
    | Some m -> m
    | None ->
      (* First open of this family: adopt an existing store file as
         generation 0, or persist the index as one. *)
      if not (Sys.file_exists base) then begin
        let pager = S.Pager.create ~fsync (S.Pager.File base) in
        persist_store index pager;
        S.Pager.close pager
      end;
      let m = { S.Manifest.live = 0; previous = 0; tip = 0 } in
      S.Manifest.commit ~fsync ~base m;
      m
  in
  let snap =
    Snapshot.open_file ~pool:page_pool ~cache ~epoch:manifest.S.Manifest.live
      (S.Manifest.gen_path ~base manifest.S.Manifest.live)
  in
  let slot = { id = manifest.S.Manifest.live; snap; refs = 0 } in
  let t =
    { base; index; cache; page_pool; retain; fsync;
      wmu = Mutex.create (); mu = Mutex.create (); dirty = Ihs.create ();
      versions = Hashtbl.create 256; manifest;
      live_slot = slot; slots = [ slot ]; pending = 0; closed = false }
  in
  Cover.set_on_label_change (Hopi.cover index) (Some (fun v -> Ihs.add t.dirty v));
  Gauge.set g_live manifest.S.Manifest.live;
  Gauge.set g_lag 0;
  Gauge.set g_retained 1;
  t

let close t =
  with_lock t.mu (fun () ->
      if not t.closed then begin
        t.closed <- true;
        List.iter (fun s -> Snapshot.close s.snap) t.slots;
        t.slots <- [];
        Gauge.set g_retained 0
      end);
  Cover.set_on_label_change (Hopi.cover t.index) None

(* {1 Reader side} *)

let acquire t =
  with_lock t.mu (fun () ->
      if t.closed then invalid_arg "Hopi_serve.Generation: closed";
      let s = t.live_slot in
      s.refs <- s.refs + 1;
      s.snap)

let release t snap =
  with_lock t.mu (fun () ->
      match List.find_opt (fun s -> s.snap == snap) t.slots with
      | None -> invalid_arg "Hopi_serve.Generation.release: unknown snapshot"
      | Some s ->
        if s.refs <= 0 then invalid_arg "Hopi_serve.Generation.release: not acquired";
        s.refs <- s.refs - 1;
        sweep_locked t)

let with_snapshot t f =
  let snap = acquire t in
  Fun.protect ~finally:(fun () -> release t snap) (fun () -> f snap)

(* {1 Operations} *)

type op =
  | Add_link of int * int
  | Del_link of int * int
  | Add_doc of { name : string; xml : string }
  | Del_doc of string
  | Add_element of { doc : int; parent : int; tag : string }
  | Del_subtree of int

let int_arg what s =
  match int_of_string_opt s with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "%s: not an integer: %S" what s)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* [add-doc NAME XML...] keeps the raw remainder of the line as the XML
   source (it may contain any spacing), so parsing is positional. *)
let split_token s pos =
  let n = String.length s in
  let i = ref pos in
  while !i < n && (s.[!i] = ' ' || s.[!i] = '\t') do incr i done;
  if !i >= n then None
  else begin
    let j = ref !i in
    while !j < n && s.[!j] <> ' ' && s.[!j] <> '\t' do incr j done;
    Some (String.sub s !i (!j - !i), !j)
  end

let parse_op line =
  match split_token line 0 with
  | None -> Error "empty operation"
  | Some (cmd, after_cmd) ->
    let rest =
      String.trim (String.sub line after_cmd (String.length line - after_cmd))
    in
    let toks = String.split_on_char ' ' rest |> List.filter (fun s -> s <> "") in
    (match cmd, toks with
     | "add-link", [ u; v ] ->
       let* u = int_arg "source" u in
       let* v = int_arg "target" v in
       Ok (Add_link (u, v))
     | "del-link", [ u; v ] ->
       let* u = int_arg "source" u in
       let* v = int_arg "target" v in
       Ok (Del_link (u, v))
     | "add-doc", _ ->
       (match split_token line after_cmd with
        | None -> Error "add-doc: missing document name"
        | Some (name, after_name) ->
          let xml =
            String.trim
              (String.sub line after_name (String.length line - after_name))
          in
          if xml = "" then Error "add-doc: missing XML source"
          else Ok (Add_doc { name; xml }))
     | "del-doc", [ name ] -> Ok (Del_doc name)
     | "add-element", [ doc; parent; tag ] ->
       let* doc = int_arg "doc" doc in
       let* parent = int_arg "parent" parent in
       Ok (Add_element { doc; parent; tag })
     | "del-subtree", [ e ] ->
       let* e = int_arg "element" e in
       Ok (Del_subtree e)
     | ("add-link" | "del-link" | "del-doc" | "add-element" | "del-subtree"), _ ->
       Error (Printf.sprintf "%s: wrong number of arguments" cmd)
     | _ ->
       Error
         (Printf.sprintf
            "unknown operation %S (expected add-link | del-link | add-doc | \
             del-doc | add-element | del-subtree)"
            cmd))

let guard f =
  match f () with
  | v -> Ok v
  | exception Invalid_argument m -> Error m
  | exception Failure m -> Error m
  | exception Not_found -> Error "target not found"

let apply_to_index idx op =
  let c = Hopi.collection idx in
  match op with
  | Add_link (u, v) ->
    guard (fun () ->
        let kind =
          match Hopi.insert_link idx u v with
          | Collection.Tree -> "tree"
          | Collection.Intra -> "intra"
          | Collection.Inter -> "inter"
        in
        Printf.sprintf "linked %d -> %d (%s)" u v kind)
  | Del_link (u, v) ->
    guard (fun () ->
        Hopi.remove_link idx u v;
        Printf.sprintf "unlinked %d -> %d" u v)
  | Add_doc { name; xml } ->
    (match Collection.find_doc c name with
     | Some _ -> Error (Printf.sprintf "document %S already exists" name)
     | None ->
       (match guard (fun () -> Hopi.insert_document_xml idx ~name xml) with
        | Error _ as e -> e
        | Ok (Error e) ->
          Error (Format.asprintf "%s: %a" name Hopi_xml.Xml_parser.pp_error e)
        | Ok (Ok did) ->
          Ok (Printf.sprintf "document %S inserted as doc %d" name did)))
  | Del_doc name ->
    (match Collection.find_doc c name with
     | None -> Error (Printf.sprintf "no document named %S" name)
     | Some did ->
       guard (fun () ->
           let st = Hopi.remove_document idx did in
           Printf.sprintf "document %S deleted (%s, %d nodes recomputed)" name
             (if st.Hopi_core.Maintenance.separating then
                "separating fast path"
              else "general path")
             st.Hopi_core.Maintenance.recomputed_nodes))
  | Add_element { doc; parent; tag } ->
    guard (fun () ->
        let e = Hopi.insert_element idx ~doc ~parent ~tag in
        Printf.sprintf "element %d (<%s>) inserted under %d" e tag parent)
  | Del_subtree e ->
    guard (fun () ->
        let recomputed = Hopi.remove_subtree idx e in
        Printf.sprintf "subtree %d removed (%d nodes recomputed)" e recomputed)

let bump_pending t =
  with_lock t.mu (fun () ->
      t.pending <- t.pending + 1;
      Gauge.set g_lag t.pending)

let apply t op =
  with_lock t.wmu (fun () ->
      let r = apply_to_index t.index op in
      (match r with Ok _ -> bump_pending t | Error _ -> ());
      r)

(* {1 Generation control} *)

type flip_stats = {
  generation : int;
  duration_ns : int;
  dirtied : int;
  invalidated : int;
}

let flip t =
  with_lock t.wmu (fun () ->
      let timer = Timer.start () in
      let m' =
        S.Manifest.publish ~fsync:t.fsync ~base:t.base
          ~load:(persist_store t.index)
          ()
      in
      let g = m'.S.Manifest.live in
      let dirty_nodes = Ihs.to_list t.dirty in
      let dirtied = List.length dirty_nodes in
      let invalidated =
        List.fold_left
          (fun acc v ->
            let ov = version_in t.versions v in
            let evict dir =
              if Label_cache.remove t.cache (Label_cache.key ~version:ov dir v)
              then 1
              else 0
            in
            let acc = acc + evict Label_cache.Lin + evict Label_cache.Lout in
            Hashtbl.replace t.versions v g;
            acc)
          0 dirty_nodes
      in
      Ihs.clear t.dirty;
      let slot = open_slot t g in
      with_lock t.mu (fun () ->
          t.manifest <- m';
          t.slots <- slot :: t.slots;
          t.live_slot <- slot;
          t.pending <- 0;
          sweep_locked t);
      let ns = Int64.to_int (Timer.elapsed_ns timer) in
      Counter.incr c_flips;
      Counter.add c_invalidated invalidated;
      Histogram.observe h_flip ns;
      Gauge.set g_flip_last ns;
      Gauge.set g_live g;
      Gauge.set g_lag 0;
      { generation = g; duration_ns = ns; dirtied; invalidated })

let rollback t =
  with_lock t.wmu (fun () ->
      let m' = S.Manifest.rollback ~fsync:t.fsync ~base:t.base () in
      with_lock t.mu (fun () ->
          if m'.S.Manifest.live <> t.live_slot.id then begin
            match
              List.find_opt (fun s -> s.id = m'.S.Manifest.live) t.slots
            with
            | Some s ->
              t.manifest <- m';
              t.live_slot <- s;
              Counter.incr c_rollbacks;
              Gauge.set g_live s.id;
              sweep_locked t
            | None ->
              (* unreachable through this module's own retention rules:
                 [previous] is never swept *)
              invalid_arg
                "Hopi_serve.Generation.rollback: target generation not retained"
          end
          else t.manifest <- m');
      m'.S.Manifest.live)

(* {1 Introspection} *)

let live t = with_lock t.mu (fun () -> t.live_slot.id)

let previous t = with_lock t.mu (fun () -> t.manifest.S.Manifest.previous)

let tip t = with_lock t.mu (fun () -> t.manifest.S.Manifest.tip)

let pending_ops t = with_lock t.mu (fun () -> t.pending)

let retained t = with_lock t.mu (fun () -> List.length t.slots)

let cache t = t.cache
