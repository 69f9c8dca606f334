(* Query parsing and batch evaluation, on a pool or sequentially
   (contract in the interface).  Answers are computed into their query's
   slot by Pool.map_array or Array.map, which is what makes batch output
   deterministic. *)

module Pool = Hopi_util.Pool
module Timer = Hopi_util.Timer
module Registry = Hopi_obs.Registry
module Counter = Hopi_obs.Counter
module Gauge = Hopi_obs.Gauge
module Histogram = Hopi_obs.Histogram

let m_queries =
  Registry.counter "hopi_serve_queries_total" ~help:"Queries served from snapshots"

let m_batches =
  Registry.counter "hopi_serve_batches_total" ~help:"Query batches evaluated"

let m_failed =
  Registry.counter "hopi_serve_query_failures_total"
    ~help:"Queries answered with an error"

(* the per-query histogram [hopi_serve_query_duration_ns] is owned by
   [Hopi_obs.Reqtrace], which observes it from [finish] *)

let h_batch_ns =
  Registry.histogram "hopi_serve_batch_duration_ns" ~help:"Per-batch service time"

let g_throughput =
  Registry.gauge "hopi_serve_throughput_qps"
    ~help:"Queries per second of the last evaluated batch"

type query =
  | Reach of int * int
  | Dist of int * int
  | Desc of int
  | Anc of int
  | Path of string

type answer =
  | Bool of bool
  | Distance of int option
  | Count of int
  | Rendered of string
  | Failed of string

let pp_query ppf = function
  | Reach (u, v) -> Format.fprintf ppf "reach %d %d" u v
  | Dist (u, v) -> Format.fprintf ppf "dist %d %d" u v
  | Desc u -> Format.fprintf ppf "desc %d" u
  | Anc u -> Format.fprintf ppf "anc %d" u
  | Path e -> Format.fprintf ppf "path %s" e

let parse line =
  let line = String.trim line in
  let words = String.split_on_char ' ' line |> List.filter (fun w -> w <> "") in
  let int w =
    match int_of_string_opt w with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "not a node id: %S" w)
  in
  match words with
  | [ "reach"; u; v ] ->
    Result.bind (int u) (fun u -> Result.map (fun v -> Reach (u, v)) (int v))
  | [ "dist"; u; v ] ->
    Result.bind (int u) (fun u -> Result.map (fun v -> Dist (u, v)) (int v))
  | [ "desc"; u ] -> Result.map (fun u -> Desc u) (int u)
  | [ "anc"; u ] -> Result.map (fun u -> Anc u) (int u)
  | "path" :: (_ :: _ as rest) -> Ok (Path (String.concat " " rest))
  | [] -> Error "empty query"
  | cmd :: _ ->
    Error
      (Printf.sprintf
         "unknown query %S (expected: reach U V | dist U V | desc U | anc U | path EXPR)"
         cmd)

let render = function
  | Bool b -> string_of_bool b
  | Distance None -> "unreachable"
  | Distance (Some d) -> string_of_int d
  | Count n -> string_of_int n
  | Rendered s -> s
  | Failed e -> "error: " ^ e

type path_eval = string -> (string, string) result

type ctx = { conn : int; queue_wait_ns : int }

(* An engine abstracts "something that answers the four index queries":
   a single snapshot, or a Router scatter-gathering over K shards.  All
   callbacks must be safe from any pool domain. *)
type engine = {
  connected : int -> int -> bool;
  min_distance : int -> int -> int option;
  descendants : ?f:(int -> unit) -> int -> int;
  ancestors : ?f:(int -> unit) -> int -> int;
  path_eval : path_eval option;
}

(* a snapshot's result sets are streamed, never built: count what the
   iterator yields *)
let counted iter snap ?(f = ignore) u =
  let n = ref 0 in
  iter snap u (fun w ->
      incr n;
      f w);
  !n

let engine_of_snapshot ?path_eval snap =
  {
    connected = Snapshot.connected snap;
    min_distance = Snapshot.min_distance snap;
    descendants = counted Snapshot.iter_desc snap;
    ancestors = counted Snapshot.iter_anc snap;
    path_eval;
  }

let eval_unmetered eng q =
  match q with
  | Reach (u, v) -> Bool (eng.connected u v)
  | Dist (u, v) -> Distance (eng.min_distance u v)
  | Desc u -> Count (eng.descendants u)
  | Anc u -> Count (eng.ancestors u)
  | Path expr -> (
    match eng.path_eval with
    | None -> Failed "path queries need a corpus (serve --corpus DIR)"
    | Some f -> ( match f expr with Ok s -> Rendered s | Error e -> Failed e))

let kind_of = function
  | Reach _ -> "reach"
  | Dist _ -> "dist"
  | Desc _ -> "desc"
  | Anc _ -> "anc"
  | Path _ -> "path"

(* Reqtrace assigns the request id, computes the latency, attributes the
   domain-local cache/label/pager deltas, feeds the per-kind histograms
   and the overall [h_query_ns] (same registry instance), and records a
   slowlog sample when the request is at or over the threshold.  The
   query/answer thunks only run for slowlogged requests. *)
let eval_engine ?ctx eng q =
  Counter.incr m_queries;
  let tok = Hopi_obs.Reqtrace.start () in
  let a =
    match eval_unmetered eng q with
    | a -> a
    | exception e -> Failed (Printexc.to_string e)
  in
  let conn, queue_wait_ns =
    match ctx with None -> (0, 0) | Some c -> (c.conn, c.queue_wait_ns)
  in
  ignore
    (Hopi_obs.Reqtrace.finish ~conn ~queue_wait_ns tok ~kind:(kind_of q)
       ~query:(fun () -> Format.asprintf "%a" pp_query q)
       ~answer:(fun () -> render a));
  (match a with Failed _ -> Counter.incr m_failed | _ -> ());
  a

(* Count and time one batch evaluated by [run]. *)
let timed_batch run queries =
  Counter.incr m_batches;
  let n = Array.length queries in
  if n = 0 then [||]
  else begin
    let t0 = Timer.start () in
    let answers = run queries in
    let elapsed = Int64.to_int (Timer.elapsed_ns t0) in
    Histogram.observe h_batch_ns elapsed;
    Gauge.set g_throughput
      (int_of_float (float_of_int n *. 1e9 /. float_of_int (max 1 elapsed)));
    answers
  end

let eval_batch_engine ?ctx ~pool eng queries =
  (* big batches of tiny queries: hand out contiguous chunks so the
     atomic cursor is not the bottleneck *)
  let chunk = max 1 (Array.length queries / (Pool.jobs pool * 8)) in
  timed_batch (Pool.map_array pool ~chunk (eval_engine ?ctx eng)) queries

let eval_frame ?ctx eng queries = timed_batch (Array.map (eval_engine ?ctx eng)) queries

let eval_batch ?path_eval ~pool snap queries =
  eval_batch_engine ~pool (engine_of_snapshot ?path_eval snap) queries
