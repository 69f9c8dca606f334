(* hopi — command-line front end.

     hopi gen  --kind dblp --docs 200 --out corpus/   generate a corpus
     hopi build corpus/ --store corpus.db             build + persist + stats
     hopi query corpus/ '//article//author'           evaluate a path query
     hopi query corpus/ --batch queries.txt --jobs 4  batch evaluation
     hopi serve corpus.db --jobs 4 --cache-mb 64      query-serving loop
     hopi serve corpus.db --socket /tmp/hopi.sock     socket front-end
     hopi shard-split corpus/ -k 4 --out shards/      K-shard partitioning
     hopi serve --shard shards/                       scatter-gather serving
     hopi client --socket /tmp/hopi.sock --batch q    drive a running server
     hopi check corpus/                               exhaustive self-check

   See docs/OPERATIONS.md for the full operator guide. *)

module Collection = Hopi_collection.Collection
module Timer = Hopi_util.Timer
module Trace = Hopi_obs.Trace
open Hopi_core

(* A bad input — a corpus, a batch file, a combination of arguments — is
   reported on one line and exits 1; an uncaught exception is left to mean
   a bug. *)
let die fmt = Printf.ksprintf (fun msg -> Fmt.epr "hopi: %s@." msg; exit 1) fmt

let load_dir dir =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".xml")
    |> List.sort compare
  in
  if files = [] then die "no .xml files in %s" dir;
  let c = Collection.create () in
  List.iter
    (fun f ->
      let ic = open_in_bin (Filename.concat dir f) in
      let n = in_channel_length ic in
      let src = really_input_string ic n in
      close_in ic;
      match Collection.add_document_xml c ~name:f src with
      | Ok _ -> ()
      | Error e -> die "%s: %s" (Filename.concat dir f) (Fmt.str "%a" Hopi_xml.Xml_parser.pp_error e))
    files;
  c

let setup_logs verbose = Hopi_obs.Log_setup.setup ~verbose ()

let write_metrics = function
  | None -> ()
  | Some path ->
    Hopi_obs.Export.write_json path;
    Fmt.pr "metrics written to %s@." path

let config_of_flags partitioner joiner limit jobs =
  let partitioner =
    match partitioner with
    | `Whole -> Config.Whole
    | `Single -> Config.Singleton
    | `Random -> Config.Random_nodes limit
    | `Closure -> Config.Closure_aware limit
  in
  { Config.default with partitioner; joiner; jobs }

(* {1 gen} *)

let gen kind docs out =
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let write name text =
    let oc = open_out_bin (Filename.concat out name) in
    output_string oc text;
    close_out oc
  in
  (match kind with
   | "dblp" ->
     let cfg = Hopi_workload.Dblp_gen.default ~n_docs:docs in
     for i = 0 to docs - 1 do
       write (Hopi_workload.Dblp_gen.doc_name i) (Hopi_workload.Dblp_gen.document_xml cfg i)
     done
   | "inex" ->
     let cfg = Hopi_workload.Inex_gen.default ~n_docs:docs in
     for i = 0 to docs - 1 do
       write (Hopi_workload.Inex_gen.doc_name i) (Hopi_workload.Inex_gen.document_xml cfg i)
     done
   | k -> die "unknown kind %S (dblp|inex)" k);
  Fmt.pr "wrote %d documents to %s@." docs out

(* {1 build} *)

let write_chrome_trace = function
  | None -> ()
  | Some path ->
    Hopi_obs.Chrome.write path;
    Fmt.pr "chrome trace (%d events) written to %s — open in ui.perfetto.dev or chrome://tracing@."
      (Hopi_obs.Chrome.n_events ()) path

let ns_of_ms ms = int_of_float (Float.max 0.0 ms *. 1e6)

let build dir partitioner joiner limit jobs verbose store_path no_fsync metrics_path
    trace_out =
  setup_logs verbose;
  let c = Trace.with_span "build.load" (fun () -> load_dir dir) in
  Fmt.pr "collection: %d docs, %d elements, %d links (%d unresolved references)@."
    (Collection.n_docs c) (Collection.n_elements c) (Collection.n_links c)
    (Collection.pending_links c);
  let config = config_of_flags partitioner joiner limit jobs in
  Fmt.pr "config: %a@." Config.pp config;
  let idx, t = Timer.time (fun () -> Hopi.create ~config c) in
  let r = Hopi.last_build idx in
  Fmt.pr "built in %a (partition %a, covers %a, join %a)@." Timer.pp_duration t
    Timer.pp_duration r.Build.partition_seconds Timer.pp_duration r.Build.cover_seconds
    Timer.pp_duration r.Build.join_seconds;
  Fmt.pr "cover: %d entries over %d partitions (%d from the join)@." (Hopi.size idx)
    r.Build.partitioning.Hopi_collection.Partitioning.n r.Build.join_entries;
  (match store_path with
   | None -> ()
   | Some path ->
     let pager =
       Hopi_storage.Pager.create ~fsync:(not no_fsync) (Hopi_storage.Pager.File path)
     in
     let store =
       Trace.with_span "build.store" (fun () ->
           (* drop the build's garbage first (the join's sorted entry
              arrays): the store write allocates its interval arrays on top
              of the finished cover, and without a full collection here the
              heap grows for them instead (1000 DBLP docs, --jobs 1: 190
              against 141 MiB peak RSS, 3 runs each) *)
           Gc.full_major ();
           let store = Hopi.to_store idx pager in
           Hopi_storage.Cover_store.save store;
           store)
     in
     Fmt.pr "stored %d LIN/LOUT entries on %d pages in %s@."
       (Hopi_storage.Cover_store.n_entries store)
       (Hopi_storage.Pager.n_pages pager) path;
     Hopi_storage.Pager.close pager);
  write_metrics metrics_path;
  write_chrome_trace trace_out

(* {1 inspect} *)

(* A store this build cannot read: the error on one line, and what to do
   about it on the next. *)
let report_storage_error path e =
  let module E = Hopi_storage.Storage_error in
  Fmt.epr "%s: %s@." path (E.to_string e);
  Option.iter (Fmt.epr "hint: %s@.") (E.hint e)

let or_storage_error path f =
  try f ()
  with Hopi_storage.Storage_error.Storage_error e ->
    report_storage_error path e;
    exit 1

let inspect path =
  or_storage_error path @@ fun () ->
  let module Cs = Hopi_storage.Cover_store in
  let pager = Hopi_storage.Pager.open_existing path in
  let store = Cs.open_pager pager in
  Fmt.pr "%s: %d nodes, %d label entries (%d stored integers) on %d pages (%d KiB)%s@."
    path (Cs.n_nodes store) (Cs.n_entries store) (Cs.stored_integers store)
    (Hopi_storage.Pager.n_pages pager)
    (Hopi_storage.Pager.size_bytes pager / 1024)
    (if Cs.with_dist store then ", distance-aware" else "");
  let tables = Cs.table_bytes store in
  let row_bytes = List.fold_left (fun acc (_, b) -> acc + b) 0 tables in
  Fmt.pr "row tables: %s; %.2f bytes per label entry (all four tables)@."
    (String.concat ", " (List.map (fun (name, b) -> Fmt.str "%s %d B" name b) tables))
    (if Cs.n_entries store = 0 then 0.0
     else float_of_int row_bytes /. float_of_int (Cs.n_entries store));
  Fmt.pr "directory: %d B, %.2f bytes per key (%d keys)@." (Cs.directory_bytes store)
    (if Cs.n_keys store = 0 then 0.0
     else float_of_int (Cs.directory_bytes store) /. float_of_int (Cs.n_keys store))
    (Cs.n_keys store);
  Hopi_storage.Pager.close pager

(* {1 verify-store} *)

let verify_store path verbose =
  setup_logs verbose;
  let module S = Hopi_storage in
  match S.Pager.open_existing path with
  | exception S.Storage_error.Storage_error e ->
    report_storage_error path e;
    exit 1
  | pager ->
    let bad = S.Pager.verify_pages pager in
    if bad <> [] then begin
      Fmt.pr "%s: CHECKSUM FAILURE on %d of %d page(s): %s@." path (List.length bad)
        (S.Pager.n_pages pager)
        (String.concat ", " (List.map string_of_int bad));
      exit 1
    end;
    let fail e =
      report_storage_error path e;
      exit 1
    in
    (* page 0's magic tells a store, a generation manifest and a routing
       index apart: each reader rejects the others' with [Bad_magic] *)
    let what =
      match S.Catalog.read pager with
      | (_ : S.Catalog.t) -> (
        (* the row tables: directory invariants at open, then every row *)
        match S.Cover_store.check (S.Cover_store.open_pager pager) with
        | rows -> Printf.sprintf "cover store, %d rows verified" rows
        | exception S.Storage_error.Storage_error e ->
          Fmt.pr "%s: STRUCTURE FAILURE: %s@." path (S.Storage_error.to_string e);
          exit 1)
      | exception S.Storage_error.Storage_error (Bad_magic _ as e) -> (
        match S.Manifest.read_file path with
        | m ->
          Printf.sprintf "generation manifest (live %d, previous %d, tip %d)"
            m.S.Manifest.live m.S.Manifest.previous m.S.Manifest.tip
        | exception S.Storage_error.Storage_error (Bad_magic _) -> (
          let module R = Hopi_serve.Router in
          match R.read_routing path with
          | r ->
            Printf.sprintf "routing index (generation %d, %d shards, %d cross links%s)"
              r.R.gen r.R.n_shards (List.length r.R.links)
              (if r.R.dist then ", distance-aware" else "")
          | exception S.Storage_error.Storage_error (Bad_magic _) -> fail e
          | exception S.Storage_error.Storage_error e -> fail e)
        | exception S.Storage_error.Storage_error e -> fail e)
      | exception S.Storage_error.Storage_error e -> fail e
    in
    Fmt.pr "%s: ok — %s, %d pages (%d KiB), all checksums verified@." path what
      (S.Pager.n_pages pager)
      (S.Pager.size_bytes pager / 1024);
    S.Pager.close pager

(* {1 query} *)

let render_element c e =
  Fmt.str "%s:%s" (Collection.doc_name c (Collection.doc_of_element c e))
    (Collection.tag_of c e)

let render_match c m =
  Fmt.str "score %.3f  %s" m.Hopi_query.Eval.score
    (String.concat " -> " (List.map (render_element c) m.Hopi_query.Eval.path))

(* Force the lazily built sub-indexes once, so pool workers only read. *)
let prewarm_for_pool idx ~distance =
  ignore (Hopi.text_index idx);
  if distance then ignore (Hopi.distance_index idx)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let acc = ref [] in
      (try
         while true do
           acc := input_line ic :: !acc
         done
       with End_of_file -> ());
      List.rev !acc)

let query dir expr_str batch_file top distance jobs metrics_path =
  let c = load_dir dir in
  let idx = Hopi.create c in
  let options =
    { Hopi_query.Eval.default_options with max_results = top; use_distance = distance }
  in
  (match (expr_str, batch_file) with
   | Some expr_str, None ->
     let expr = Hopi_query.Path_expr.parse_exn expr_str in
     let matches, t = Timer.time (fun () -> Hopi_query.Eval.eval ~options idx expr) in
     Fmt.pr "%d matches in %a@." (List.length matches) Timer.pp_duration t;
     List.iteri (fun i m -> Fmt.pr "%3d. %s@." (i + 1) (render_match c m)) matches
   | None, Some path ->
     let lines =
       read_lines path
       |> List.filter (fun l ->
              let l = String.trim l in
              l <> "" && not (String.length l > 0 && l.[0] = '#'))
     in
     let exprs =
       Array.of_list (List.map (fun l -> (l, Hopi_query.Path_expr.parse_exn l)) lines)
     in
     prewarm_for_pool idx ~distance:(distance || options.max_distance <> None);
     let answers, t =
       Timer.time (fun () ->
           Hopi_util.Pool.with_pool ~jobs (fun pool ->
               Hopi_util.Pool.map_array pool
                 (fun (_, expr) -> Hopi_query.Eval.eval ~options idx expr)
                 exprs))
     in
     Array.iteri
       (fun i matches ->
         let src, _ = exprs.(i) in
         match matches with
         | [] -> Fmt.pr "%s: 0 matches@." src
         | best :: _ ->
           Fmt.pr "%s: %d matches; top %s@." src (List.length matches)
             (render_match c best))
       answers;
     Fmt.pr "%d expressions in %a (jobs %d)@." (Array.length exprs) Timer.pp_duration t
       jobs
   | Some _, Some _ -> die "give either EXPR or --batch FILE, not both"
   | None, None -> die "nothing to do: give EXPR or --batch FILE");
  write_metrics metrics_path

(* {1 serve} *)

(* A reader hanging up must surface as EPIPE/[Sys_error] on our write —
   handled as a clean shutdown by the REPL — not kill the process. *)
let ignore_sigpipe () =
  match Sys.set_signal Sys.sigpipe Sys.Signal_ignore with
  | () -> ()
  | exception Invalid_argument _ -> () (* no SIGPIPE on this platform *)

(* When the launcher closed fd 0, the first file we open is handed fd 0
   and the input loop would read store pages as commands.  Checked before
   anything is opened; a dead stdin serves an empty session instead. *)
let stdin_usable () =
  match Unix.fstat Unix.stdin with
  | (_ : Unix.stats) -> true
  | exception Unix.Unix_error (Unix.EBADF, _, _) -> false

let slowlog_reply () =
  ignore (Hopi_obs.Reqtrace.refresh ());
  String.trim (Fmt.str "%a" Hopi_obs.Reqtrace.pp_slowlog ())

(* The serve flags every mode shares. *)
type session = {
  jobs : int;
  batch_size : int;
  stdin_ok : bool;
  socket : string option;
  tcp : int option;
  max_inflight : int;
  queue_depth : int;
  metrics_path : string option;
}

(* The socket front-end serves the same control commands as the REPL,
   plus [quit] shutting the whole server down. *)
let run_socket_server { jobs; socket; tcp; max_inflight; queue_depth; _ } ~eval ~control =
  let module Sv = Hopi_serve.Server in
  let server_cell = ref None in
  let sock_control cmd =
    let cmd = String.trim cmd in
    if cmd = "quit" then begin
      (match !server_cell with Some s -> Sv.request_shutdown s | None -> ());
      Ok "bye"
    end
    else
      match control cmd with
      | Some thunk -> ( try Ok (thunk ()) with e -> Error (Printexc.to_string e))
      | None -> Error (Printf.sprintf "unknown control command %S" cmd)
      | exception e -> Error (Printexc.to_string e)
  in
  let server =
    Sv.create ~workers:jobs ~max_inflight ~queue_depth { Sv.eval; control = sock_control }
  in
  server_cell := Some server;
  (match socket with
   | None -> ()
   | Some path ->
     ignore (Sv.add_listener server (Sv.Unix_socket path) : Unix.sockaddr);
     Fmt.epr "listening on unix:%s@." path);
  (match tcp with
   | None -> ()
   | Some port -> (
     match Sv.add_listener server (Sv.Tcp ("127.0.0.1", port)) with
     | Unix.ADDR_INET (_, p) -> Fmt.epr "listening on tcp:127.0.0.1:%d@." p
     | _ -> ()));
  let on_signal (_ : int) = Sv.request_shutdown server in
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle on_signal)
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ];
  Sv.wait server;
  Sv.stop server;
  Fmt.epr "server stopped: %d connections seen, %d requests served@."
    (Sv.connections_seen server) (Sv.requests_served server)

(* The stdin/stdout REPL over [eval]. *)
let run_repl { batch_size; stdin_ok; _ } ~eval ~control =
  let module R = Hopi_serve.Repl in
  let read_line =
    if stdin_ok then R.stdin_reader ()
    else begin
      Fmt.epr
        "serve: stdin is unavailable; shutting down cleanly (use --socket \
         or --tcp for network serving)@.";
      fun () -> None
    end
  in
  let st =
    R.run ~batch_size ~read_line ~write_line:(R.stdout_writer ()) ~eval ~control ()
  in
  match st.R.outcome with
  | R.Eof | R.Quit -> ()
  | R.Output_closed reason ->
    (* stdout still buffers bytes the dead pipe will never take; point
       fd 1 at /dev/null so the interpreter's at-exit flush cannot
       re-raise the write error after our clean shutdown *)
    (try
       let dn = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
       Unix.dup2 dn Unix.stdout;
       Unix.close dn
     with Unix.Unix_error _ -> ());
    Fmt.epr "serve: output closed (%s); shutting down cleanly@." reason

(* The serve loop every mode runs, over the engine [with_engine] lends
   for each batch together with the epoch its answers come from; [stats]
   renders the [stats] reply from the served count and [control] adds
   mode-specific commands.  The stdin REPL fans each batch out on a
   domain pool; the socket front-end evaluates each frame whole on one of
   its [jobs] workers, several frames at once, so the count is atomic.
   [on_exit] releases the index when the session ends, before the final
   SLO refresh and the metrics write. *)
let serve_loop session ~with_engine ~stats ?(control = fun _ -> None) ~on_exit () =
  let served = Atomic.make 0 in
  let eval_with run queries =
    with_engine (fun ~epoch eng ->
        let answers = run eng queries in
        ignore (Atomic.fetch_and_add served (Array.length answers));
        (epoch, answers))
  in
  let control = function
    | "stats" -> Some (fun () -> stats (Atomic.get served))
    | "slowlog" -> Some slowlog_reply
    | cmd -> control cmd
  in
  (match (session.socket, session.tcp) with
   | None, None ->
     Hopi_util.Pool.with_pool ~jobs:session.jobs (fun pool ->
         let eval queries =
           snd (eval_with (fun eng -> Hopi_serve.Batch.eval_batch_engine ~pool eng) queries)
         in
         run_repl session ~eval ~control)
   | _ ->
     let eval ~ctx = eval_with (Hopi_serve.Batch.eval_frame ~ctx) in
     run_socket_server session ~eval ~control);
  on_exit (Atomic.get served);
  (* final refresh so the metrics snapshot carries current gauges *)
  ignore (Hopi_obs.Reqtrace.refresh ());
  write_metrics session.metrics_path

let configure_reqtrace slow_ms slo_p50_ms slo_p95_ms slo_p99_ms =
  let module Rt = Hopi_obs.Reqtrace in
  (match slow_ms with
   | None -> Rt.disable_slowlog ()
   | Some ms -> Rt.set_slow_threshold_ns (ns_of_ms ms));
  Hopi_obs.Slo.set_targets Rt.slo
    ?p50_ns:(Option.map ns_of_ms slo_p50_ms)
    ?p95_ns:(Option.map ns_of_ms slo_p95_ms)
    ?p99_ns:(Option.map ns_of_ms slo_p99_ms)

(* One line of a [--maintain] churn script: a Generation op, [flip],
   [rollback], or [sleep-ms N] for pacing. *)
let maint_line gen line =
  let module G = Hopi_serve.Generation in
  if line = "flip" then begin
    let st = G.flip gen in
    Ok
      (Fmt.str "generation %d live (%.2f ms, %d dirtied, %d invalidated)"
         st.G.generation
         (float_of_int st.G.duration_ns /. 1e6)
         st.G.dirtied st.G.invalidated)
  end
  else if line = "rollback" then
    Ok (Fmt.str "generation %d live (rolled back)" (G.rollback gen))
  else if String.length line > 9 && String.sub line 0 9 = "sleep-ms " then begin
    match float_of_string_opt (String.sub line 9 (String.length line - 9)) with
    | Some ms when ms >= 0.0 ->
      Unix.sleepf (ms /. 1000.0);
      Ok (Fmt.str "slept %.0f ms" ms)
    | _ -> Error "sleep-ms: not a non-negative number"
  end
  else
    match G.parse_op line with Error _ as e -> e | Ok op -> G.apply gen op

(* Live mode: the store is a generation family; churn is applied through
   Hopi_serve.Generation and flipped in without interrupting serving. *)
let serve_live session store_path cache_mb pool_pages corpus_dir maintain retain
    fsync =
  let module G = Hopi_serve.Generation in
  let module Lc = Hopi_serve.Label_cache in
  let c = load_dir corpus_dir in
  let idx = Hopi.create c in
  let gen =
    G.create ~pool_pages ~cache_mb ~retain ~fsync ~base:store_path idx
  in
  Fmt.epr
    "serving %s live: generation %d, %d elements; cache %d MiB, jobs %d, \
     batch %d, retain %d@."
    store_path (G.live gen)
    (Collection.n_elements c)
    cache_mb session.jobs session.batch_size retain;
  let writer =
    match maintain with
    | None -> None
    | Some file ->
      let lines =
        read_lines file
        |> List.map String.trim
        |> List.filter (fun l -> l <> "" && l.[0] <> '#')
      in
      Fmt.epr "maintain: %d scripted operations from %s@." (List.length lines)
        file;
      Some
        (Domain.spawn (fun () ->
             List.iter
               (fun line ->
                 match maint_line gen line with
                 | Ok msg -> Fmt.epr "maintain: %s@." msg
                 | Error e -> Fmt.epr "maintain: error: %s (%S)@." e line)
               lines))
  in
  (* one snapshot per batch: a batch never straddles a flip *)
  let with_engine f =
    G.with_snapshot gen (fun snap ->
        f ~epoch:(Hopi_serve.Snapshot.epoch snap)
          (Hopi_serve.Batch.engine_of_snapshot snap))
  in
  let stats served =
    Fmt.str
      "served %d; generation %d (%d pending ops); cache %d entries, %d bytes \
       of %d"
      served (G.live gen) (G.pending_ops gen)
      (Lc.entries (G.cache gen))
      (Lc.bytes (G.cache gen))
      (Lc.capacity_bytes (G.cache gen))
  in
  let control = function
    | "gens" ->
      Some
        (fun () ->
          Fmt.str
            "live %d, previous %d, tip %d; %d pending ops, %d generations open"
            (G.live gen) (G.previous gen) (G.tip gen) (G.pending_ops gen)
            (G.retained gen))
    | "flip" ->
      Some
        (fun () ->
          let st = G.flip gen in
          Fmt.str
            "generation %d live (%.2f ms; %d nodes dirtied, %d cache entries \
             invalidated)"
            st.G.generation
            (float_of_int st.G.duration_ns /. 1e6)
            st.G.dirtied st.G.invalidated)
    | "rollback" ->
      Some (fun () -> Fmt.str "generation %d live (rolled back)" (G.rollback gen))
    | line when String.length line > 6 && String.sub line 0 6 = "apply " ->
      Some
        (fun () ->
          let rest = String.sub line 6 (String.length line - 6) in
          match G.parse_op rest with
          | Error e -> "error: " ^ e
          | Ok op -> (
            match G.apply gen op with
            | Ok msg -> "ok: " ^ msg
            | Error e -> "error: " ^ e))
    | _ -> None
  in
  let on_exit served =
    (match writer with Some d -> Domain.join d | None -> ());
    Fmt.epr "served %d queries; final generation %d of %d@." served (G.live gen)
      (G.tip gen);
    G.close gen
  in
  serve_loop session ~with_engine ~stats ~control ~on_exit ()

(* Shard mode: STORE is a directory written by [hopi shard-split]; queries
   route through the scatter-gather {!Hopi_serve.Router}. *)
let serve_shard session dir cache_mb pool_pages =
  let module Router = Hopi_serve.Router in
  let router = Router.open_dir ~pool_pages ~cache_mb dir in
  Fmt.epr
    "serving shard dir %s: %d shards (%s), %d elements, %d label entries; \
     cache %d MiB, jobs %d, batch %d@."
    dir (Router.n_shards router)
    (if Router.with_dist router then "distance-aware" else "plain")
    (Router.n_nodes router) (Router.n_entries router) cache_mb session.jobs
    session.batch_size;
  let eng = Router.engine router in
  let stats served =
    Fmt.str "served %d; %d shards, %d elements, %d entries" served
      (Router.n_shards router) (Router.n_nodes router) (Router.n_entries router)
  in
  let on_exit served =
    Fmt.epr "served %d queries@." served;
    Router.close router
  in
  serve_loop session ~with_engine:(fun f -> f ~epoch:0 eng) ~stats ~on_exit ()

(* Single-store mode: one snapshot, optionally a corpus for path queries. *)
let serve_store session store_path cache_mb pool_pages corpus =
  let module Snapshot = Hopi_serve.Snapshot in
  let module Lc = Hopi_serve.Label_cache in
  let snap = Snapshot.open_file ~pool_pages ~cache_mb store_path in
  Fmt.epr "serving %s: %d nodes, %d entries; cache %d MiB, jobs %d, batch %d@."
    store_path (Snapshot.n_nodes snap) (Snapshot.n_entries snap) cache_mb
    session.jobs session.batch_size;
  let path_eval =
    match corpus with
    | None -> None
    | Some dir ->
      let c = load_dir dir in
      let idx = Hopi.create c in
      (* path queries run with the default options, which never read the
         distance index *)
      prewarm_for_pool idx ~distance:false;
      Fmt.epr "corpus %s loaded for path queries (%d elements)@." dir
        (Collection.n_elements c);
      Some
        (fun expr_str ->
          match Hopi_query.Path_expr.parse expr_str with
          | Error e -> Error e
          | Ok expr -> (
            match Hopi_query.Eval.eval idx expr with
            | [] -> Ok "0 matches"
            | best :: _ as matches ->
              Ok
                (Fmt.str "%d matches; top %s" (List.length matches)
                   (render_match c best))))
  in
  let eng = Hopi_serve.Batch.engine_of_snapshot ?path_eval snap in
  let cache = Snapshot.cache snap in
  let stats served =
    Fmt.str "served %d; cache %d entries, %d bytes of %d" served
      (Lc.entries cache) (Lc.bytes cache) (Lc.capacity_bytes cache)
  in
  let on_exit served =
    Fmt.epr "served %d queries@." served;
    Snapshot.close snap
  in
  serve_loop session
    ~with_engine:(fun f -> f ~epoch:(Snapshot.epoch snap) eng)
    ~stats ~on_exit ()

let serve store_path jobs cache_mb batch_size pool_pages corpus verbose metrics_path
    slow_ms slo_p50_ms slo_p95_ms slo_p99_ms live maintain retain no_fsync shard
    socket tcp max_inflight queue_depth =
  setup_logs verbose;
  configure_reqtrace slow_ms slo_p50_ms slo_p95_ms slo_p99_ms;
  (* probe stdin before anything is opened (a later open could be handed
     fd 0); SIGPIPE must be ignored before the first answer is written *)
  let stdin_ok = stdin_usable () in
  ignore_sigpipe ();
  let session =
    { jobs; batch_size; stdin_ok; socket; tcp; max_inflight; queue_depth;
      metrics_path }
  in
  or_storage_error store_path @@ fun () ->
  if shard then serve_shard session store_path cache_mb pool_pages
  else if live || maintain <> None then begin
    match corpus with
    | None ->
      die "--live needs --corpus DIR: the writer index is built from the corpus"
    | Some dir ->
      serve_live session store_path cache_mb pool_pages dir maintain retain
        (not no_fsync)
  end
  else serve_store session store_path cache_mb pool_pages corpus

(* {1 shard-split} *)

let shard_split dir out k dist no_fsync verbose =
  setup_logs verbose;
  let module Serve = Hopi_serve in
  let c = load_dir dir in
  Fmt.pr "collection: %d docs, %d elements, %d links@." (Collection.n_docs c)
    (Collection.n_elements c) (Collection.n_links c);
  let st, t =
    Timer.time (fun () ->
        Serve.Router.split ~dist ~fsync:(not no_fsync) ~k ~dir:out c)
  in
  Fmt.pr
    "split into %d shards under %s in %a: %d elements, %d label entries, %d \
     cross links@."
    st.Serve.Router.shards out Timer.pp_duration t st.Serve.Router.elements
    st.Serve.Router.entries st.Serve.Router.cross_links;
  Fmt.pr "serve it with: hopi serve --shard %s@." out

(* {1 client} *)

let client socket tcp host batch control_cmd =
  let module Serve = Hopi_serve in
  ignore_sigpipe ();
  let cl =
    match (socket, tcp) with
    | Some path, None -> Serve.Client.connect_unix path
    | None, Some port -> Serve.Client.connect_tcp host port
    | _ -> die "connect with exactly one of --socket PATH or --tcp PORT"
  in
  Fun.protect ~finally:(fun () -> Serve.Client.close cl) @@ fun () ->
  let print_reply = function
    | Ok (Serve.Client.Answers (epoch, lines)) ->
      List.iter print_endline lines;
      Fmt.epr "epoch %d, %d answer(s)@." epoch (List.length lines)
    | Ok (Serve.Client.Busy msg) ->
      Fmt.epr "busy: %s@." msg;
      exit 75 (* EX_TEMPFAIL: back off and retry *)
    | Ok (Serve.Client.Refused msg) ->
      Fmt.epr "error: %s@." msg;
      exit 1
    | Error e ->
      Fmt.epr "client: %s@." e;
      exit 1
  in
  match control_cmd with
  | Some cmd -> print_reply (Serve.Client.control cl cmd)
  | None ->
    let raw =
      match batch with
      | Some file -> read_lines file
      | None ->
        let acc = ref [] in
        (try
           while true do
             acc := input_line stdin :: !acc
           done
         with End_of_file -> ());
        List.rev !acc
    in
    let lines =
      raw |> List.map String.trim
      |> List.filter (fun l -> l <> "" && l.[0] <> '#')
    in
    if lines = [] then
      die "no queries: give --batch FILE, --control CMD, or pipe lines";
    print_reply (Serve.Client.request cl lines)

(* {1 slowlog} *)

(* Offline slow-query profiling: run a whole batch file against a stored
   index with the slowlog capturing every query, then print the slowest
   ones with their per-request attribution plus a per-kind latency table.
   [--slow-ms] raises the capture threshold (default 0 = profile all). *)
let slowlog_run store_path batch_file slow_ms jobs cache_mb top verbose =
  setup_logs verbose;
  let module Serve = Hopi_serve in
  let module Rt = Hopi_obs.Reqtrace in
  let lines =
    read_lines batch_file
    |> List.filter (fun l ->
           let l = String.trim l in
           l <> "" && not (String.length l > 0 && l.[0] = '#'))
  in
  let queries, parse_errors =
    List.fold_left
      (fun (qs, errs) line ->
        match Serve.Batch.parse line with
        | Ok q -> (q :: qs, errs)
        | Error e ->
          Fmt.epr "skipping %S: %s@." line e;
          (qs, errs + 1))
      ([], 0) lines
  in
  let queries = Array.of_list (List.rev queries) in
  if Array.length queries = 0 then die "no valid queries in the batch file";
  Rt.set_slow_threshold_ns (ns_of_ms slow_ms);
  (* hold every request of this run so "slowest" is global, not newest *)
  Rt.set_slowlog_capacity (Array.length queries);
  Fun.protect
    ~finally:(fun () ->
      Rt.disable_slowlog ();
      Rt.set_slowlog_capacity Rt.default_slowlog_capacity)
  @@ fun () ->
  let snap = Serve.Snapshot.open_file ~cache_mb store_path in
  Fun.protect ~finally:(fun () -> Serve.Snapshot.close snap) @@ fun () ->
  let (_ : Serve.Batch.answer array), t =
    Timer.time (fun () ->
        Hopi_util.Pool.with_pool ~jobs (fun pool ->
            Serve.Batch.eval_batch ~pool snap queries))
  in
  ignore (Rt.refresh ());
  Fmt.pr "%d queries in %a (jobs %d, cache %d MiB)%s@." (Array.length queries)
    Timer.pp_duration t jobs cache_mb
    (if parse_errors > 0 then Fmt.str "; %d malformed lines skipped" parse_errors
     else "");
  (* per-kind latency table straight from the registry histograms *)
  let rows =
    List.filter_map
      (fun m ->
        match m with
        | Hopi_obs.Registry.Histogram h ->
          let name = Hopi_obs.Histogram.name h in
          let prefix = "hopi_serve_query_kind_" in
          if String.length name > String.length prefix
             && String.sub name 0 (String.length prefix) = prefix
             && Hopi_obs.Histogram.count h > 0
          then begin
            let kind =
              String.sub name (String.length prefix)
                (String.length name - String.length prefix)
            in
            let kind =
              match String.index_opt kind '_' with
              | Some i -> String.sub kind 0 i
              | None -> kind
            in
            let s = Hopi_obs.Histogram.summary h in
            let us v = Fmt.str "%.1f" (v /. 1e3) in
            Some
              [ kind; string_of_int s.Hopi_util.Stats.n;
                us s.Hopi_util.Stats.p50; us s.Hopi_util.Stats.p95;
                us s.Hopi_util.Stats.p99; us s.Hopi_util.Stats.max ]
          end
          else None
        | _ -> None)
      (Hopi_obs.Registry.metrics ())
  in
  Fmt.pr "@.per-kind latency (this process):@.";
  List.iter
    (fun row -> Fmt.pr "  %s@." (String.concat "  " row))
    ([ "kind"; "count"; "p50us"; "p95us"; "p99us"; "maxus" ] :: rows);
  let slow =
    List.sort (fun a b -> compare b.Rt.latency_ns a.Rt.latency_ns) (Rt.slowlog ())
  in
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  Fmt.pr "@.slowest %d of %d at/over %.3fms:@." (min top (List.length slow))
    (List.length slow) slow_ms;
  List.iter (fun s -> Fmt.pr "%a" Rt.pp_sample s) (take top slow)

(* {1 metrics} *)

let metrics dir format verbose =
  setup_logs verbose;
  (* with a corpus argument, build (and so exercise) the index first so the
     dump reflects a real workload; without one, dump the metric catalog *)
  (match dir with
   | None -> ()
   | Some d ->
     let c = load_dir d in
     let idx = Hopi.create c in
     ignore (Hopi.size idx));
  match format with
  | "human" -> Fmt.pr "%a@." (fun ppf () -> Hopi_obs.Export.pp ppf ()) ()
  | "json" -> print_string (Hopi_obs.Export.to_json ())
  | "prometheus" | "prom" -> print_string (Hopi_obs.Export.prometheus ())
  | f -> die "unknown format %S (human|json|prometheus)" f

(* {1 check} *)

let check dir =
  let c = load_dir dir in
  let idx = Hopi.create c in
  let ok, t = Timer.time (fun () -> Hopi.self_check idx) in
  Fmt.pr "self-check (%d elements, O(n^2) BFS oracle): %s in %a@."
    (Collection.n_elements c)
    (if ok then "ok" else "FAILED")
    Timer.pp_duration t;
  if not ok then exit 1

(* {1 command line} *)

open Cmdliner

let dir_arg = Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR")

let partitioner_arg =
  let kinds = [ ("whole", `Whole); ("single", `Single); ("random", `Random); ("closure", `Closure) ] in
  Arg.(value & opt (enum kinds) `Closure & info [ "partitioner" ] ~docv:"whole|single|random|closure")

let joiner_arg =
  let kinds = [ ("psg", Config.Psg); ("incremental", Config.Incremental) ] in
  Arg.(value & opt (enum kinds) Config.Psg & info [ "joiner" ] ~docv:"psg|incremental")

let metrics_arg =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Write a JSON snapshot of all metrics and spans to $(docv).")

let trace_out_arg =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Write the span tree as a Chrome trace-event file to $(docv) \
               (open in ui.perfetto.dev or chrome://tracing).")

let limit_arg =
  let doc = "Partition limit (elements for random, connections for closure)." in
  Arg.(value & opt int 100_000 & info [ "limit" ] ~doc)

let gen_cmd =
  let kind = Arg.(value & opt string "dblp" & info [ "kind" ] ~docv:"dblp|inex") in
  let docs = Arg.(value & opt int 100 & info [ "docs" ]) in
  let out = Arg.(required & opt (some string) None & info [ "out" ] ~docv:"DIR") in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a synthetic XML corpus")
    Term.(const gen $ kind $ docs $ out)

let build_cmd =
  let store =
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"FILE"
           ~doc:"Persist LIN/LOUT tables to this page file.")
  in
  let jobs =
    Arg.(value & opt int 1 & info [ "j"; "jobs"; "domains" ] ~docv:"N"
           ~doc:"Worker domains for the build pool (per-partition covers and \
                 PSG join work; the cover is identical for any value).")
  in
  let no_fsync =
    Arg.(value & flag & info [ "no-fsync" ]
           ~doc:"Skip sync points when persisting with $(b,--store): faster, \
                 still process-crash-safe (the store is written under a \
                 temporary name and renamed into place), but a power loss \
                 may lose the save.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log progress.") in
  Cmd.v (Cmd.info "build" ~doc:"Build the HOPI index and print statistics")
    Term.(const build $ dir_arg $ partitioner_arg $ joiner_arg $ limit_arg
          $ jobs $ verbose $ store $ no_fsync $ metrics_arg $ trace_out_arg)

let jobs_arg =
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Worker domains for batch evaluation (answers are returned in \
               input order for any value).")

let query_cmd =
  let expr = Arg.(value & pos 1 (some string) None & info [] ~docv:"EXPR") in
  let batch =
    Arg.(value & opt (some file) None & info [ "batch" ] ~docv:"FILE"
           ~doc:"Evaluate every path expression in $(docv) (one per line, \
                 $(b,#) comments allowed) on the pool instead of a single \
                 EXPR.")
  in
  let top = Arg.(value & opt int 20 & info [ "top" ]) in
  let distance = Arg.(value & flag & info [ "distance" ] ~doc:"Rank by link distance.") in
  Cmd.v (Cmd.info "query" ~doc:"Evaluate a path expression (//a//b, ~tag, *, [predicates])")
    Term.(const query $ dir_arg $ expr $ batch $ top $ distance $ jobs_arg $ metrics_arg)

let serve_cmd =
  (* [some string], not [some file]: in live mode the store (and its
     generation manifest) may not exist yet — Generation.create makes it *)
  let store = Arg.(required & pos 0 (some string) None & info [] ~docv:"STORE") in
  let jobs =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Query workers.  The stdin loop evaluates each batch on a \
                 pool of $(docv) domains; the socket front-end serves up to \
                 $(docv) frames at once, each whole on one worker (one \
                 thread plus $(docv)-1 domains).")
  in
  let cache_mb =
    Arg.(value & opt int 64 & info [ "cache-mb" ] ~docv:"MB"
           ~doc:"Label-cache budget in MiB; 0 disables caching (every fetch \
                 goes to the page store).")
  in
  let batch =
    Arg.(value & opt int 1 & info [ "batch" ] ~docv:"B"
           ~doc:"Group up to $(docv) input lines per evaluation batch \
                 (1 = answer each line immediately; larger values raise \
                 throughput on piped workloads).")
  in
  let pool_pages =
    Arg.(value & opt int 4096 & info [ "pool-pages" ] ~docv:"N"
           ~doc:"Pages of the shared read-only page pool all reader \
                 domains probe (4 KiB each; the default is 16 MiB).")
  in
  let corpus =
    Arg.(value & opt (some dir) None & info [ "corpus" ] ~docv:"DIR"
           ~doc:"Load this corpus (and build its in-memory index) so \
                 $(b,path EXPR) queries can be served.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log progress.") in
  let slow_ms =
    Arg.(value & opt (some float) None & info [ "slow-ms" ] ~docv:"MS"
           ~doc:"Record queries taking at least $(docv) milliseconds into the \
                 slow-query log (0 records every query); dump it with the \
                 $(b,slowlog) input command.")
  in
  let slo_ms which =
    Arg.(value & opt (some float) None
         & info [ Printf.sprintf "slo-%s-ms" which ] ~docv:"MS"
             ~doc:(Printf.sprintf
                     "Latency SLO: target %s of per-query service time, in \
                      milliseconds (published as hopi_slo_serve_query_* gauges)."
                     which))
  in
  let live =
    Arg.(value & flag & info [ "live" ]
           ~doc:"Serve a generation family with online maintenance: the \
                 $(b,apply OP), $(b,flip), $(b,rollback) and $(b,gens) input \
                 commands become available, and STORE names the family base \
                 (created from $(b,--corpus) if absent).  Implied by \
                 $(b,--maintain).")
  in
  let maintain =
    Arg.(value & opt (some file) None & info [ "maintain" ] ~docv:"FILE"
           ~doc:"Run this churn script (maintenance ops plus $(b,flip), \
                 $(b,rollback), $(b,sleep-ms N); one per line, $(b,#) \
                 comments) on a writer domain concurrently with serving.")
  in
  let retain =
    Arg.(value & opt int 2 & info [ "retain" ] ~docv:"N"
           ~doc:"Keep the store files of $(docv) generations beyond the \
                 live/rollback pair on disk before deleting them.")
  in
  let no_fsync =
    Arg.(value & flag & info [ "no-fsync" ]
           ~doc:"Skip sync points when publishing generations: faster flips, \
                 still process-crash-safe (every file is written under a \
                 temporary name and renamed into place), but a power loss \
                 may lose the newest generation.")
  in
  let shard =
    Arg.(value & flag & info [ "shard" ]
           ~doc:"STORE is a shard directory written by $(b,hopi shard-split); \
                 queries scatter-gather across its K shard stores through \
                 the replicated routing index.")
  in
  let socket =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Serve the frame protocol on a Unix-domain socket bound at \
                 $(docv) instead of reading stdin (see docs/OPERATIONS.md \
                 for the wire format).")
  in
  let tcp =
    Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT"
           ~doc:"Serve the frame protocol on 127.0.0.1:$(docv) (0 picks an \
                 ephemeral port, printed on stderr).  Combines with \
                 $(b,--socket).")
  in
  let max_inflight =
    Arg.(value & opt int 64 & info [ "max-inflight" ] ~docv:"N"
           ~doc:"Admission control for socket serving: reject requests with \
                 a busy frame once $(docv) are admitted but unanswered \
                 across all connections.")
  in
  let queue_depth =
    Arg.(value & opt int 16 & info [ "queue-depth" ] ~docv:"N"
           ~doc:"Bound one socket connection's wait queue at $(docv) \
                 requests; further requests on that connection answer busy.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve reach/dist/desc/anc/path queries over a stored index \
             (line-oriented stdin/stdout loop, or a socket front-end with \
             $(b,--socket)/$(b,--tcp); see docs/OPERATIONS.md), optionally \
             with live generational maintenance ($(b,--live)) or K-shard \
             scatter-gather routing ($(b,--shard))")
    Term.(const serve $ store $ jobs $ cache_mb $ batch $ pool_pages $ corpus
          $ verbose $ metrics_arg $ slow_ms $ slo_ms "p50" $ slo_ms "p95"
          $ slo_ms "p99" $ live $ maintain $ retain $ no_fsync $ shard
          $ socket $ tcp $ max_inflight $ queue_depth)

let shard_split_cmd =
  let out =
    Arg.(required & opt (some string) None & info [ "out" ] ~docv:"DIR"
           ~doc:"Shard directory to write (created if missing): one \
                 $(b,shard-NNN.db) cover store per shard \
                 ($(b,shard-NNN.db.genG) on a re-split) plus the \
                 $(b,routing.idx) that commits them.")
  in
  let k =
    Arg.(value & opt int 2 & info [ "k"; "shards" ] ~docv:"K"
           ~doc:"Number of shards (clamped to the document count); \
                 documents are balanced greedily by element count.")
  in
  let dist =
    Arg.(value & flag & info [ "dist" ]
           ~doc:"Build distance-aware shard covers so $(b,dist) queries \
                 answer true shortest distances across shards.")
  in
  let no_fsync =
    Arg.(value & flag & info [ "no-fsync" ]
           ~doc:"Skip sync points when publishing the shard stores and the \
                 routing index.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log progress.") in
  Cmd.v
    (Cmd.info "shard-split"
       ~doc:"Partition a corpus into K shard cover stores plus a replicated \
             cross-link/PSG routing index, servable with $(b,hopi serve \
             --shard)")
    Term.(const shard_split $ dir_arg $ out $ k $ dist $ no_fsync $ verbose)

let client_cmd =
  let socket =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Connect to the Unix-domain socket at $(docv).")
  in
  let tcp =
    Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT"
           ~doc:"Connect to $(b,--host):$(docv) over TCP.")
  in
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR"
           ~doc:"Dotted address for $(b,--tcp) (default 127.0.0.1).")
  in
  let batch =
    Arg.(value & opt (some file) None & info [ "batch" ] ~docv:"FILE"
           ~doc:"Send every query line in $(docv) as one request frame \
                 (default: read the lines from stdin).")
  in
  let control =
    Arg.(value & opt (some string) None & info [ "control" ] ~docv:"CMD"
           ~doc:"Send one control command ($(b,stats), $(b,slowlog), \
                 $(b,quit), ...) instead of queries.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one batch of queries (or a control command) to a running \
             $(b,hopi serve --socket)/$(b,--tcp) server and print the \
             answers; exits 75 on a busy (admission-control) reply")
    Term.(const client $ socket $ tcp $ host $ batch $ control)

let metrics_cmd =
  let dir = Arg.(value & pos 0 (some dir) None & info [] ~docv:"DIR") in
  let format =
    Arg.(value & opt string "human" & info [ "format" ] ~docv:"human|json|prometheus")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log progress.") in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Dump the metrics registry (after building DIR's index, if given)")
    Term.(const metrics $ dir $ format $ verbose)

let check_cmd =
  Cmd.v (Cmd.info "check" ~doc:"Verify the index against BFS reachability")
    Term.(const check $ dir_arg)

let inspect_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v (Cmd.info "inspect" ~doc:"Print statistics of a stored index file")
    Term.(const inspect $ file)

let slowlog_cmd =
  let store = Arg.(required & pos 0 (some file) None & info [] ~docv:"STORE") in
  let batch =
    Arg.(required & opt (some file) None & info [ "batch" ] ~docv:"FILE"
           ~doc:"Serve-protocol queries to profile, one per line ($(b,#) \
                 comments allowed).")
  in
  let slow_ms =
    Arg.(value & opt float 0.0 & info [ "slow-ms" ] ~docv:"MS"
           ~doc:"Only capture queries at or over $(docv) milliseconds \
                 (default 0: capture everything).")
  in
  let jobs =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains for batch evaluation.")
  in
  let cache_mb =
    Arg.(value & opt int 64 & info [ "cache-mb" ] ~docv:"MB"
           ~doc:"Label-cache budget in MiB; 0 profiles the cold path.")
  in
  let top =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N"
           ~doc:"Slow queries to print, slowest first.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log progress.") in
  Cmd.v
    (Cmd.info "slowlog"
       ~doc:"Run a query batch against a stored index and print the slowest \
             queries with per-request cache/label/pager attribution")
    Term.(const slowlog_run $ store $ batch $ slow_ms $ jobs $ cache_mb $ top
          $ verbose)

let verify_store_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log pager activity.")
  in
  Cmd.v
    (Cmd.info "verify-store"
       ~doc:"Checksum-verify every page of a stored index, shard store, \
             generation manifest or shard directory's routing.idx, then \
             check its structure (read-only: a published file is never \
             written); exits 1 on any corruption")
    Term.(const verify_store $ file $ verbose)

let () =
  let doc = "HOPI: a 2-hop-cover connection index for linked XML collections" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "hopi" ~doc)
          [ gen_cmd; build_cmd; query_cmd; serve_cmd; shard_split_cmd; client_cmd;
            check_cmd; inspect_cmd; verify_store_cmd; metrics_cmd;
            slowlog_cmd ]))
