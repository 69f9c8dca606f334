(* The traced run's in-process replay: the workload's seeded inputs go
   through each layer's public functions, every call is timed, and spans
   are recorded with Hopi_obs.Trace (one request id on every span of a
   request).  A layer's self time is its time minus the time of the layer
   below on the same inputs.

   Layers not exercised by a workload report 0. *)

module Trace = Hopi_obs.Trace
module Pool = Hopi_util.Pool
module Batch = Hopi_serve.Batch
module Snapshot = Hopi_serve.Snapshot
module Label_cache = Hopi_serve.Label_cache
module G = Hopi_serve.Generation
module Codec = Hopi_twohop.Label_codec
module S = Hopi_storage

let page_writes = "hopi_storage_page_writes_total"
let fsyncs = "hopi_storage_fsyncs_total"

let us_per total n = if n = 0 then 0.0 else total *. 1e6 /. float_of_int n

let time f =
  let t0 = Util.now () in
  let r = f () in
  (r, Util.now () -. t0)

(* Total duration of the spans called [name] (outermost occurrences). *)
let span_total name =
  let rec go acc (sp : Trace.span) =
    if sp.Trace.name = name then acc + sp.Trace.duration_ns
    else List.fold_left go acc (Trace.children sp)
  in
  float_of_int (List.fold_left go 0 (Trace.roots ())) /. 1e9

(* {1 Build} *)

(* [hopi build CORPUS --store FILE --jobs J], phase by phase. *)
let build ~corpus ~jobs =
  let module Hopi = Hopi_core.Hopi in
  let module Build = Hopi_core.Build in
  let gc0 = Gc.quick_stat () in
  let c, load_s = Trace.with_span "xml.load" (fun () -> time (fun () -> Util.load_dir corpus)) in
  let spills0 = Util.counter "hopi_spill_runs_total" in
  let idx = Hopi.create ~config:{ Hopi_core.Config.default with Hopi_core.Config.jobs } c in
  let r = Hopi.last_build idx in
  let path = "trace-build.db" in
  let pager = S.Pager.create ~pool_pages:512 ~fsync:true (S.Pager.File path) in
  let store, bulk_s, bulk =
    Util.with_counters [ "hopi_storage_btree_bulk_pages_total"; page_writes; fsyncs ] (fun () ->
        Trace.with_span "btree.bulk_load" (fun () -> Hopi.to_store idx pager))
  in
  let (), save_s, save =
    Util.with_counters [ page_writes; fsyncs; "hopi_storage_journal_pages_total" ] (fun () ->
        Trace.with_span "pager.save" (fun () -> S.Cover_store.save store))
  in
  S.Pager.close pager;
  Sys.remove path;
  let gc1 = Gc.quick_stat () in
  let d l k = float_of_int (List.assoc k l) in
  let busy cpu wall = if wall > 0.0 then cpu /. (wall *. float_of_int r.Build.jobs) else 0.0 in
  let gauge name =
    match Hopi_obs.Registry.find name with
    | Some (Hopi_obs.Registry.Gauge g) -> float_of_int (Hopi_obs.Gauge.get g)
    | _ -> 0.0
  in
  [
    ("xml.load_s", load_s);
    ("partition.s", r.Build.partition_seconds);
    ("twohop.cover_s", r.Build.cover_seconds);
    ("twohop.cover_busy_ratio", busy r.Build.cover_cpu_seconds r.Build.cover_seconds);
    ("build.cover_speedup_pct", gauge "hopi_build_cover_speedup_pct");
    ("join_psg.build_psg_s", span_total "join.psg.build_psg");
    ("join_psg.hbar_s", span_total "join.psg.hbar");
    ("join_psg.sort_s", span_total "join.psg.sort");
    ("join_psg.merge_s", span_total "join.psg.merge");
    ("join_psg.bulk_s", span_total "join.psg.bulk");
    ("join_psg.busy_ratio", busy r.Build.join_cpu_seconds r.Build.join_seconds);
    ("btree.bulk_load_s", bulk_s);
    ("btree.bulk_pages", d bulk "hopi_storage_btree_bulk_pages_total");
    ("pager.save_s", save_s);
    ("pager.page_writes", d bulk page_writes +. d save page_writes);
    ("pager.fsyncs", d bulk fsyncs +. d save fsyncs);
    ("journal.pages", d save "hopi_storage_journal_pages_total");
    ("spill.runs", float_of_int (Util.counter "hopi_spill_runs_total" - spills0));
    ("gc.minor_collections", float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
    ("gc.major_collections", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
    ("gc.top_heap_mb", float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
    ("cover.entries", float_of_int (Hopi.size idx));
    ("cover.join_entries", float_of_int r.Build.join_entries);
  ]

(* {1 Reads} *)

let kind_of = function
  | Batch.Reach _ -> 0
  | Batch.Dist _ -> 1
  | Batch.Desc _ -> 2
  | Batch.Anc _ -> 3
  | Batch.Path _ -> invalid_arg "kind_of"

let kinds = [| "reach"; "dist"; "desc"; "anc" |]

let call (eng : Batch.engine) = function
  | Batch.Reach (u, v) -> ignore (eng.Batch.connected u v)
  | Batch.Dist (u, v) -> ignore (eng.Batch.min_distance u v)
  | Batch.Desc u -> ignore (eng.Batch.descendants u)
  | Batch.Anc u -> ignore (eng.Batch.ancestors u)
  | Batch.Path _ -> ()

(* One pass over the frames: the pooled batch, then each query kind
   alone on the engine (the layer below), each frame one request.  With
   [traced], every step is a span carrying the request id. *)
let replay_frames ~pool ~traced eng (frames : Workload.frame array) =
  let kind_s = Array.make 4 0.0 and kind_n = Array.make 4 0 in
  let batch_s = ref 0.0 and seq_s = ref 0.0 in
  let span name i f =
    if traced then
      Trace.with_span name (fun () ->
          Trace.add "req_id" i;
          f ())
    else f ()
  in
  Array.iteri
    (fun i (f : Workload.frame) ->
      span "request" i (fun () ->
          let (), dt =
            span "batch.eval_batch_engine" i (fun () ->
                time (fun () -> ignore (Batch.eval_batch_engine ~pool eng f.Workload.queries)))
          in
          batch_s := !batch_s +. dt;
          let (), dt =
            span "batch.eval_engine_sequential" i (fun () ->
                time (fun () -> Array.iter (fun q -> ignore (Batch.eval_engine eng q)) f.Workload.queries))
          in
          seq_s := !seq_s +. dt;
          for k = 0 to 3 do
            let qs = List.filter (fun q -> kind_of q = k) (Array.to_list f.Workload.queries) in
            if qs <> [] then begin
              let (), dt =
                span ("engine." ^ kinds.(k)) i (fun () -> time (fun () -> List.iter (call eng) qs))
              in
              kind_s.(k) <- kind_s.(k) +. dt;
              kind_n.(k) <- kind_n.(k) + List.length qs
            end
          done))
    frames;
  (!batch_s, !seq_s, kind_s, kind_n)

let pairs frames =
  Array.to_list frames
  |> List.concat_map (fun (f : Workload.frame) -> Array.to_list f.Workload.queries)
  |> List.filter_map (function Batch.Reach (u, v) | Batch.Dist (u, v) -> Some (u, v) | _ -> None)

(* Label fetches straight from the B+-trees of a store file, through a
   fresh page pool of the serving size. *)
let cover_store ~pool_pages ~path frames =
  let pool = S.Pager.Read_pool.create ~pages:pool_pages () in
  let pager = S.Pager.open_shared ~pool path in
  let st = S.Cover_store.open_pager pager in
  let encode iter v =
    let e = Codec.Enc.create () in
    iter st v (fun ~center ~dist -> Codec.Enc.row e ~center ~dist);
    Codec.Enc.finish e
  in
  let ps = pairs frames in
  let pool_touches () =
    Util.counter "hopi_storage_shared_pool_hits_total" + Util.counter "hopi_storage_shared_pool_misses_total"
  in
  let touches0 = pool_touches () in
  let labels, fetch_s =
    Trace.with_span "cover_store.label_fetch" (fun () ->
        time (fun () ->
            List.map (fun (u, v) -> (encode S.Cover_store.iter_lout u, encode S.Cover_store.iter_lin v)) ps))
  in
  let fetches = 2 * List.length ps in
  let pages_per_fetch =
    if fetches = 0 then 0.0 else float_of_int (pool_touches () - touches0) /. float_of_int fetches
  in
  (* by-center scans of the backward index: what desc/anc add *)
  let centers =
    Array.to_list frames
    |> List.concat_map (fun (f : Workload.frame) -> Array.to_list f.Workload.queries)
    |> List.concat_map (function
         | Batch.Desc u -> List.map (fun w -> `In w) (u :: Array.to_list (Codec.to_array (encode S.Cover_store.iter_lout u)))
         | Batch.Anc v -> List.map (fun w -> `Out w) (v :: Array.to_list (Codec.to_array (encode S.Cover_store.iter_lin v)))
         | _ -> [])
  in
  let (), by_center_s =
    Trace.with_span "cover_store.by_center" (fun () ->
        time (fun () ->
            List.iter
              (function
                | `In w -> S.Cover_store.iter_in_by_center st w (fun ~node:_ ~dist:_ -> ())
                | `Out w -> S.Cover_store.iter_out_by_center st w (fun ~node:_ ~dist:_ -> ()))
              centers))
  in
  S.Pager.close pager;
  (* codec merges on the fetched labels *)
  let merges = List.length labels in
  let (), merge_s =
    Trace.with_span "label_codec.merge" (fun () ->
        time (fun () ->
            List.iter (fun (lout, lin) -> ignore (Codec.intersects lout lin); ignore (Codec.merge_min lout lin)) labels))
  in
  [
    ("cover_store.label_fetch_us", us_per fetch_s fetches);
    ("btree.pages_per_fetch", pages_per_fetch);
    ("cover_store.by_center_us", us_per by_center_s (List.length centers));
    ("label_codec.merge_ns", if merges = 0 then 0.0 else merge_s *. 1e9 /. float_of_int (2 * merges));
  ]

(* Finds on the serving label cache, with the keys the workload probes. *)
let cache_finds cache frames =
  let keys =
    List.concat_map
      (fun (u, v) -> [ Label_cache.key Label_cache.Lout u; Label_cache.key Label_cache.Lin v ])
      (pairs frames)
  in
  let (), dt =
    Trace.with_span "label_cache.find" (fun () ->
        time (fun () -> List.iter (fun k -> ignore (Label_cache.find cache k)) keys))
  in
  [ ("label_cache.find_ns", if keys = [] then 0.0 else dt *. 1e9 /. float_of_int (List.length keys)) ]

(* The untraced pass first, then the traced one; their difference is the
   span recording's overhead. *)
let reads ~pool ~prefix eng frames =
  ignore (replay_frames ~pool ~traced:false eng frames);
  let (_, _, _, _), plain_s = time (fun () -> replay_frames ~pool ~traced:false eng frames) in
  let (batch_s, seq_s, kind_s, kind_n), traced_s =
    time (fun () -> replay_frames ~pool ~traced:true eng frames)
  in
  let nf = Array.length frames in
  [
    ("batch.eval_us", us_per batch_s nf);
    ("pool.batch_speedup", if batch_s > 0.0 then seq_s /. batch_s else 0.0);
    ("obs.trace_overhead_pct", (traced_s -. plain_s) /. plain_s *. 100.0);
  ]
  @ List.init 4 (fun k -> (prefix ^ kinds.(k) ^ "_us", us_per kind_s.(k) kind_n.(k)))

let single ~pool ~cache_mb ~pool_pages ~path frames =
  let snap = Snapshot.open_file ~pool_pages ~cache_mb path in
  let eng = Batch.engine_of_snapshot snap in
  let r = reads ~pool ~prefix:"snapshot." eng frames @ cache_finds (Snapshot.cache snap) frames in
  Snapshot.close snap;
  r @ cover_store ~pool_pages ~path frames

let sharded ~pool ~cache_mb ~pool_pages ~dir frames =
  let router = Hopi_serve.Router.open_dir ~pool_pages ~cache_mb dir in
  let r = reads ~pool ~prefix:"router." (Hopi_serve.Router.engine router) frames in
  Hopi_serve.Router.close router;
  List.filter (fun (k, _) -> k <> "router.desc_us" && k <> "router.anc_us") r

(* {1 Live maintenance} *)

let op_kind line = String.map (fun c -> if c = '-' then '_' else c) (List.hd (String.split_on_char ' ' line))

(* Replays the plan's groups, then its link pairs, against an in-process
   generation family (same corpus, fsync on), flipping after each, then
   serves the frames from the live generation. *)
let live ~pool ~cache_mb ~pool_pages ~corpus ~base ~groups ~links frames =
  let module Hopi = Hopi_core.Hopi in
  let idx = Hopi.create (Util.load_dir corpus) in
  let gen = G.create ~pool_pages ~cache_mb ~fsync:true ~base idx in
  let apply_ms = Hashtbl.create 8 in
  let flips = ref [] in
  let sep0 = Util.counter "hopi_maint_delete_separating_total" in
  let gen0 = Util.counter "hopi_maint_delete_general_total" in
  Array.iteri
    (fun g ops ->
      Trace.with_span "group" (fun () ->
          Trace.add "req_id" g;
          Array.iter
            (fun line ->
              let op = match G.parse_op line with Ok op -> op | Error e -> failwith e in
              let r, dt =
                Trace.with_span "generation.apply" (fun () ->
                    Trace.add "req_id" g;
                    time (fun () -> G.apply gen op))
              in
              (match r with Ok _ -> () | Error e -> failwith ("apply: " ^ e));
              let k = op_kind line in
              Hashtbl.replace apply_ms k (dt :: Option.value ~default:[] (Hashtbl.find_opt apply_ms k)))
            ops;
          let st, dt, d =
            Util.with_counters [ page_writes; fsyncs ] (fun () ->
                Trace.with_span "generation.flip" (fun () ->
                    Trace.add "req_id" g;
                    G.flip gen))
          in
          flips := (st, dt, d) :: !flips))
    (Array.append groups links);
  let flips = !flips in
  let med f = Util.median (List.map f flips) in
  let ms k = match Hashtbl.find_opt apply_ms k with Some l -> 1000.0 *. Util.median l | None -> 0.0 in
  let maint =
    [
      ("generation.apply_ms.del_doc", ms "del_doc");
      ("generation.apply_ms.add_doc", ms "add_doc");
      ("generation.apply_ms.add_link", ms "add_link");
      ("generation.apply_ms.del_link", ms "del_link");
      ("maintenance.delete_separating", float_of_int (Util.counter "hopi_maint_delete_separating_total" - sep0));
      ("maintenance.delete_general", float_of_int (Util.counter "hopi_maint_delete_general_total" - gen0));
      ("generation.flip_ms", 1000.0 *. med (fun (_, dt, _) -> dt));
      ("generation.flip_pages_written", med (fun (_, _, d) -> float_of_int (List.assoc page_writes d)));
      ("generation.flip_fsyncs", med (fun (_, _, d) -> float_of_int (List.assoc fsyncs d)));
      ("generation.flip_dirtied", med (fun (st, _, _) -> float_of_int st.G.dirtied));
    ]
  in
  (* the frames' answers on the final generation are not checked here:
     the socket run checked them against the oracle *)
  let r =
    G.with_snapshot gen (fun snap ->
        let eng = Batch.engine_of_snapshot snap in
        reads ~pool ~prefix:"snapshot." eng frames @ cache_finds (G.cache gen) frames
        @ cover_store ~pool_pages ~path:(Snapshot.path snap) frames)
  in
  G.close gen;
  maint @ r

(* {1 Entry point} *)

let run ~str ~int ~flag (p : Workload.prepared) =
  let jobs = int "jobs" and cache_mb = int "cache-mb" and pool_pages = int "pool-pages" in
  Trace.set_max_roots 1_000_000;
  Trace.reset ();
  let b = build ~corpus:(str "corpus") ~jobs in
  let frames = p.Workload.frames in
  let r =
    Pool.with_pool ~jobs (fun pool ->
        if flag "shard" then sharded ~pool ~cache_mb ~pool_pages ~dir:(str "shard") frames
        else if flag "live" then
          let groups = Array.sub p.Workload.groups 0 (min (int "groups") (Array.length p.Workload.groups)) in
          live ~pool ~cache_mb ~pool_pages ~corpus:(str "corpus") ~base:(str "live") ~groups
            ~links:p.Workload.links frames
        else single ~pool ~cache_mb ~pool_pages ~path:(str "store") frames)
  in
  Hopi_obs.Chrome.write (str "spans");
  Util.Obj (List.map (fun (k, v) -> (k, Util.Num v)) (b @ r))
