module Cover = Hopi_twohop.Cover
module Builder = Hopi_twohop.Builder
module Closure = Hopi_graph.Closure
module Collection = Hopi_collection.Collection
module Partitioning = Hopi_collection.Partitioning
module Weights = Hopi_partition.Weights
module Timer = Hopi_util.Timer
module Stats = Hopi_util.Stats
module Pool = Hopi_util.Pool

let log = Logs.Src.create "hopi.build" ~doc:"HOPI index construction"

module Log = (val Logs.src_log log : Logs.LOG)

(* {1 Metrics} — created once at module init; recording is atomic and
   allocation-free, so the multi-domain cover workers report safely. *)

module Counter = Hopi_obs.Counter
module Gauge = Hopi_obs.Gauge
module Histogram = Hopi_obs.Histogram
module Trace = Hopi_obs.Trace
module Registry = Hopi_obs.Registry

let m_builds = Registry.counter "hopi_build_total" ~help:"Index builds started"

let m_partition_entries =
  Registry.counter "hopi_build_partition_entries_total"
    ~help:"Cover entries produced by per-partition covers"

let m_join_entries =
  Registry.counter "hopi_build_join_entries_total"
    ~help:"Cover entries added by the cross-partition join"

let m_cover_entries =
  Registry.counter "hopi_build_cover_entries_total"
    ~help:"Total cover entries of finished builds"

let m_closure_connections =
  Registry.counter "hopi_build_closure_connections_total"
    ~help:"Transitive-closure connections materialised across partitions"

let h_partitions =
  Registry.histogram "hopi_build_partitions"
    ~help:"Partitions per build"

let h_build_ns =
  Registry.histogram "hopi_build_duration_ns" ~help:"End-to-end build time"

let h_partition_ns =
  Registry.histogram "hopi_build_partition_duration_ns"
    ~help:"Partitioning-phase time"

let h_cover_ns =
  Registry.histogram "hopi_build_cover_duration_ns"
    ~help:"Per-partition cover phase time"

let h_join_ns =
  Registry.histogram "hopi_build_join_duration_ns" ~help:"Join-phase time"

let h_cover_task_ns =
  Registry.histogram "hopi_build_cover_task_duration_ns"
    ~help:"Per-partition cover task time (closure + greedy cover), as run \
           on pool domains"

let g_cover_speedup_pct =
  Registry.gauge "hopi_build_cover_speedup_pct"
    ~help:"Cover-phase parallel speedup of the last build, percent \
           (CPU time across domains / wall time * 100)"

let g_join_speedup_pct =
  Registry.gauge "hopi_build_join_speedup_pct"
    ~help:"Join-phase parallel speedup of the last build, percent"

(* build-resource gauge: set from [Gc] statistics, independent of any
   benchmark harness, so `hopi build --metrics` and the bench gate can both
   watch it *)

let g_peak_heap_bytes =
  Registry.gauge "hopi_build_peak_heap_bytes"
    ~help:"Peak major-heap size observed at the end of the last build \
           (Gc top_heap_words, bytes)"

type result = {
  cover : Cover.t;
  partitioning : Partitioning.t;
  partition_entries : int;
  join_entries : int;
  closure_connections : int;
  build_seconds : float;
  partition_seconds : float;
  cover_seconds : float;
  join_seconds : float;
  jobs : int;
  cover_cpu_seconds : float;
  join_cpu_seconds : float;
}

(* The §4.3 growth runs in two timed steps: the document graph with its
   link weights, then the greedy growth with its admission tests. *)
let make_partitioning (config : Config.t) c =
  let grow partition =
    let dg, weights_s =
      Trace.with_span "build.partition.weights" (fun () ->
          Timer.time (fun () -> Weights.doc_graph c config.Config.weight_scheme))
    in
    let p, grow_s =
      Trace.with_span "build.partition.grow" (fun () -> Timer.time (fun () -> partition dg))
    in
    Log.info (fun m -> m "partition phase: weights %.3fs, grow %.3fs" weights_s grow_s);
    p
  in
  let seed = config.Config.seed in
  match config.Config.partitioner with
  | Config.Whole -> Partitioning.whole_collection c
  | Config.Singleton -> Partitioning.singleton_per_doc c
  | Config.Random_nodes max_elements ->
    grow (Hopi_partition.Random_partitioner.partition ~seed ~max_elements c)
  | Config.Closure_aware max_connections ->
    grow (Hopi_partition.Closure_partitioner.partition ~seed ~max_connections c)

let run_build pool (config : Config.t) c =
  let t0 = Timer.start () in
  Log.info (fun m ->
      m "building index for %d documents / %d elements (%a)" (Collection.n_docs c)
        (Collection.n_elements c) Config.pp config);
  let partitioning, partition_seconds =
    Trace.with_span "build.partition" (fun () ->
        Timer.time (fun () -> make_partitioning config c))
  in
  Histogram.observe h_partition_ns (Timer.ns_of_s partition_seconds);
  Histogram.observe h_partitions partitioning.Partitioning.n;
  Trace.add "partitions" partitioning.Partitioning.n;
  Trace.add "cross_links" (List.length partitioning.Partitioning.cross_links);
  Log.info (fun m ->
      m "partitioned into %d partitions (%d cross links) in %.2fs"
        partitioning.Partitioning.n
        (List.length partitioning.Partitioning.cross_links)
        partition_seconds);
  (* preselected centers: targets of cross-partition links, grouped by the
     partition that contains them (Section 4.2) *)
  let preselect = Hashtbl.create 16 in
  if config.Config.preselect_link_targets then
    List.iter
      (fun (_, v) ->
        let p = Partitioning.part_of_element partitioning c v in
        let old = Option.value ~default:[] (Hashtbl.find_opt preselect p) in
        Hashtbl.replace preselect p (v :: old))
      partitioning.Partitioning.cross_links;
  let closure_connections = ref 0 in
  (* per-partition covers are independent of each other; with [jobs > 1]
     they are computed concurrently on the build's domain pool (the paper:
     "all these computations can be done concurrently", enabling a speedup
     close to the CPU count with the evenly-sized partitions of the
     closure-aware partitioner).  [parallel_map] stores partition [p]'s
     cover in slot [p] regardless of which domain ran it, so the merge
     below always proceeds in partition order and the final cover is
     bit-identical for every [jobs] value. *)
  let cover_cpu = Timer.Acc.create () in
  let cover_task_s = Stats.Recorder.create () in
  let cover_one p =
    Timer.Acc.timed cover_cpu (fun () ->
        let t0 = Timer.start () in
        let g = Partitioning.element_subgraph partitioning c p in
        let clo = Closure.compute g in
        let preselect_centers =
          Option.value ~default:[] (Hashtbl.find_opt preselect p)
        in
        let cover, _ = Builder.build ~preselect_centers clo in
        let ns = Timer.elapsed_ns t0 in
        Histogram.observe h_cover_task_ns (Int64.to_int ns);
        Stats.Recorder.record cover_task_s (Int64.to_float ns /. 1e9);
        (cover, Closure.n_connections clo))
  in
  let n_partitions = partitioning.Partitioning.n in
  let jobs = Pool.jobs pool in
  let results, cover_seconds =
    Trace.with_span "build.cover" (fun () ->
        Timer.time (fun () ->
            Pool.parallel_map pool n_partitions cover_one))
  in
  Histogram.observe h_cover_ns (Timer.ns_of_s cover_seconds);
  let cover_cpu_seconds = Timer.Acc.total_s cover_cpu in
  let speedup_pct wall cpu =
    if wall <= 0.0 then 100 else int_of_float (cpu /. wall *. 100.0)
  in
  Gauge.set g_cover_speedup_pct (speedup_pct cover_seconds cover_cpu_seconds);
  Trace.add "cover_speedup_pct" (speedup_pct cover_seconds cover_cpu_seconds);
  Log.debug (fun m ->
      let s = Stats.Recorder.summary cover_task_s in
      m "cover tasks: n=%d mean=%.4fs p95=%.4fs max=%.4fs (cpu %.2fs / wall %.2fs)"
        s.Stats.n s.Stats.mean s.Stats.p95 s.Stats.max cover_cpu_seconds
        cover_seconds);
  let partition_covers = Array.map fst results in
  Array.iter (fun (_, n) -> closure_connections := !closure_connections + n) results;
  let partition_entries =
    Array.fold_left (fun acc cov -> acc + Cover.size cov) 0 partition_covers
  in
  Log.info (fun m ->
      m "partition covers: %d entries over %d closure connections in %.2fs"
        partition_entries !closure_connections cover_seconds);
  Counter.add m_partition_entries partition_entries;
  Counter.add m_closure_connections !closure_connections;
  Trace.add "partition_entries" partition_entries;
  Trace.add "closure_connections" !closure_connections;
  let psg_join ?strategy () =
    let final, s = Join_psg.join ?strategy ~pool c partitioning ~partition_covers in
    (final, s.Join_psg.entries_added, s.Join_psg.cpu_seconds)
  in
  let (final, join_entries, join_cpu_seconds), join_seconds =
    Trace.with_span "build.join" (fun () ->
        Timer.time (fun () ->
            match config.Config.joiner with
            | Config.Incremental ->
              (* the union of the partition covers, frozen; the join
                 writes to its overlay, folded in at the end *)
              let final = Cover.merge partition_covers ~lout:[||] ~lin:[||] in
              let s =
                Join_incremental.join final partitioning.Partitioning.cross_links
              in
              Cover.compact final;
              (final, s.Join_incremental.entries_added, 0.0)
            | Config.Psg -> psg_join ()
            | Config.Psg_partitioned budget ->
              psg_join ~strategy:(Join_psg.Partitioned budget) ()))
  in
  Histogram.observe h_join_ns (Timer.ns_of_s join_seconds);
  (* the incremental joiner is sequential and reports no CPU time: its CPU
     time is its wall time *)
  let join_cpu_seconds =
    if join_cpu_seconds = 0.0 then join_seconds else join_cpu_seconds
  in
  Gauge.set g_join_speedup_pct (speedup_pct join_seconds join_cpu_seconds);
  Trace.add "join_speedup_pct" (speedup_pct join_seconds join_cpu_seconds);
  Counter.add m_join_entries join_entries;
  Counter.add m_cover_entries (Cover.size final);
  Trace.add "join_entries" join_entries;
  Trace.add "cover_entries" (Cover.size final);
  Histogram.observe h_build_ns (Int64.to_int (Timer.elapsed_ns t0));
  Gauge.set g_peak_heap_bytes
    ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8));
  Log.info (fun m ->
      m "join added %d entries in %.2fs; total %d entries in %.2fs" join_entries
        join_seconds (Cover.size final) (Timer.elapsed_s t0));
  {
    cover = final;
    partitioning;
    partition_entries;
    join_entries;
    closure_connections = !closure_connections;
    build_seconds = Timer.elapsed_s t0;
    partition_seconds;
    cover_seconds;
    join_seconds;
    jobs;
    cover_cpu_seconds;
    join_cpu_seconds;
  }

(* One pool spans the whole build: the cover phase maps partitions over it
   and the PSG join reuses the same domains for its traversals and
   expansions, so a build spawns at most [jobs - 1] domains total. *)
let build (config : Config.t) c =
  Counter.incr m_builds;
  Pool.with_pool ~jobs:config.Config.jobs (fun pool ->
      Trace.with_span "build" (fun () -> run_build pool config c))
