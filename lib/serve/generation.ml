(* Generational store swap — see the interface for the serving model.

   Locking: [wmu] serialises the writer side (apply/flip/rollback) and is
   never held while answering queries; [mu] guards the slot table and is
   held only for pointer swaps and refcount arithmetic, so acquiring a
   snapshot costs one short critical section even while a flip is busy
   persisting megabytes.  Lock order is wmu -> mu; no query path takes
   wmu, which is what "serving never pauses" rests on.

   Cache versioning: [versions] maps a node to the generation of its last
   label change, [floor] is the global lower bound raised on wholesale
   rebuilds.  Each snapshot freezes a copy at open time, so the key a
   reader computes for a node can never drift while its batch runs; an
   entry cached under an old version is never *wrong*, merely unreachable
   once every snapshot of that vintage is gone — flip-time eviction is
   space reclamation, not a correctness mechanism. *)

module S = Hopi_storage
module Hopi = Hopi_core.Hopi
module Collection = Hopi_collection.Collection
module Cover = Hopi_twohop.Cover
module Dist_cover = Hopi_twohop.Dist_cover
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
  pool_pages : int;
  retain : int;
  fsync : bool;
  with_dist : bool;
  wmu : Mutex.t; (* writer side: apply/flip/rollback *)
  mu : Mutex.t; (* slot table, live pointer, manifest mirror *)
  dirty : Ihs.t; (* nodes whose labels changed since the last flip *)
  versions : (int, int) Hashtbl.t; (* node -> generation of last label change *)
  mutable floor : int;
  mutable need_floor : bool; (* next flip must invalidate wholesale *)
  mutable tracked_cover : Cover.t;
  mutable tracked_dist : Dist_cover.t option;
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

let persist_store ~with_dist idx pager =
  let st = S.Cover_store.create pager in
  if with_dist then S.Cover_store.bulk_load_dist_cover st (Hopi.distance_index idx)
  else S.Cover_store.bulk_load_cover st (Hopi.cover idx);
  S.Cover_store.save st

(* {1 Dirty tracking}

   The hooks land on whatever cover/dist objects the index currently
   holds.  [Hopi.rebuild] (through [apply_with]) and the post-delete
   distance-index recomputation replace those objects wholesale; when a
   refresh notices the swap it cannot attribute the differences to nodes,
   so it schedules a version-floor raise instead. *)

let refresh_cover_tracker t =
  let cov = Hopi.cover t.index in
  if not (cov == t.tracked_cover) then begin
    Cover.set_on_label_change t.tracked_cover None;
    Cover.set_on_label_change cov (Some (fun v -> Ihs.add t.dirty v));
    t.tracked_cover <- cov;
    t.need_floor <- true
  end

(* Only called from [flip]: forcing [distance_index] rebuilds it when a
   deletion invalidated it, which is exactly the work the flip must do to
   persist anyway — doing it per-[apply] would rebuild once per op. *)
let refresh_dist_tracker t =
  let dc = Hopi.distance_index t.index in
  let same = match t.tracked_dist with Some old -> old == dc | None -> false in
  if not same then begin
    (match t.tracked_dist with
     | Some old -> Dist_cover.set_on_label_change old None
     | None -> ());
    Dist_cover.set_on_label_change dc (Some (fun v -> Ihs.add t.dirty v));
    t.tracked_dist <- Some dc;
    t.need_floor <- true
  end

(* {1 Slots} *)

let node_version_fn t =
  let tbl = Hashtbl.copy t.versions in
  let floor = t.floor in
  fun v ->
    match Hashtbl.find_opt tbl v with Some k when k > floor -> k | _ -> floor

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
        let p = S.Manifest.gen_path ~base:t.base s.id in
        (try Sys.remove p with Sys_error _ -> ());
        (try Sys.remove (p ^ "-journal") with Sys_error _ -> ())
      end)
    drop;
  t.slots <- keep;
  Gauge.set g_retained (List.length keep)

(* {1 Lifecycle} *)

let create ?(pool_pages = 4096) ?(cache_mb = 64) ?(retain = 2) ?(fsync = true)
    ?(with_dist = false) ~base index =
  let cache = Label_cache.create ~capacity_bytes:(cache_mb * 1024 * 1024) () in
  (* one shared read pool for every generation this family will serve:
     pages untouched by a flip stay warm across the swap *)
  let page_pool = S.Pager.Read_pool.create ~pages:pool_pages () in
  let manifest =
    match S.Manifest.recover ~base () with
    | Some m -> m
    | None ->
      (* First open of this family: adopt an existing store file as
         generation 0, or persist the index as one. *)
      if not (Sys.file_exists base) then begin
        let pager =
          S.Pager.create ~pool_pages:(max pool_pages 512) ~fsync (S.Pager.File base)
        in
        persist_store ~with_dist index pager;
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
    { base; index; cache; page_pool; pool_pages; retain; fsync; with_dist;
      wmu = Mutex.create (); mu = Mutex.create (); dirty = Ihs.create ();
      versions = Hashtbl.create 256; floor = 0; need_floor = false;
      tracked_cover = Hopi.cover index; tracked_dist = None; manifest;
      live_slot = slot; slots = [ slot ]; pending = 0; closed = false }
  in
  Cover.set_on_label_change t.tracked_cover (Some (fun v -> Ihs.add t.dirty v));
  if with_dist then begin
    let dc = Hopi.distance_index index in
    Dist_cover.set_on_label_change dc (Some (fun v -> Ihs.add t.dirty v));
    t.tracked_dist <- Some dc
  end;
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
  Cover.set_on_label_change t.tracked_cover None;
  match t.tracked_dist with
  | Some dc -> Dist_cover.set_on_label_change dc None
  | None -> ()

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

let pp_op ppf = function
  | Add_link (u, v) -> Format.fprintf ppf "add-link %d %d" u v
  | Del_link (u, v) -> Format.fprintf ppf "del-link %d %d" u v
  | Add_doc { name; xml } -> Format.fprintf ppf "add-doc %s %s" name xml
  | Del_doc name -> Format.fprintf ppf "del-doc %s" name
  | Add_element { doc; parent; tag } ->
    Format.fprintf ppf "add-element %d %d %s" doc parent tag
  | Del_subtree e -> Format.fprintf ppf "del-subtree %d" e

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
      refresh_cover_tracker t;
      let r = apply_to_index t.index op in
      (match r with Ok _ -> bump_pending t | Error _ -> ());
      r)

let apply_with t f =
  with_lock t.wmu (fun () ->
      refresh_cover_tracker t;
      let r = f t.index in
      bump_pending t;
      r)

(* {1 Generation control} *)

type flip_stats = {
  generation : int;
  duration_ns : int;
  dirtied : int;
  invalidated : int;
  full_invalidation : bool;
}

let flip t =
  with_lock t.wmu (fun () ->
      let timer = Timer.start () in
      refresh_cover_tracker t;
      if t.with_dist then refresh_dist_tracker t;
      let m' =
        S.Manifest.publish ~fsync:t.fsync ~pool_pages:(max t.pool_pages 512)
          ~base:t.base
          ~load:(fun pgr -> persist_store ~with_dist:t.with_dist t.index pgr)
          ()
      in
      let g = m'.S.Manifest.live in
      let full = t.need_floor in
      let dirty_nodes = Ihs.to_list t.dirty in
      let dirtied = List.length dirty_nodes in
      let invalidated =
        if full then begin
          (* per-node attribution is meaningless after a wholesale rebuild:
             raise the floor so every pre-flip key becomes unreachable *)
          t.floor <- g;
          t.need_floor <- false;
          Hashtbl.reset t.versions;
          0
        end
        else
          List.fold_left
            (fun acc v ->
              let ov =
                match Hashtbl.find_opt t.versions v with
                | Some k when k > t.floor -> k
                | _ -> t.floor
              in
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
      { generation = g; duration_ns = ns; dirtied; invalidated;
        full_invalidation = full })

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

let index t = t.index

let cache t = t.cache
