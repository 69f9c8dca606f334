module Cover = Hopi_twohop.Cover
module Ihs = Hopi_util.Int_hashset
module Union_find = Hopi_util.Union_find
module Digraph = Hopi_graph.Digraph
module Closure = Hopi_graph.Closure
module Int_set = Hopi_util.Int_set
module Partitioning = Hopi_collection.Partitioning
module Psg = Hopi_collection.Psg
module Pool = Hopi_util.Pool
module Timer = Hopi_util.Timer
module Radix_sort = Hopi_util.Radix_sort

let log = Logs.Src.create "hopi.join.psg" ~doc:"PSG-based cross-partition join"

module Log = (val Logs.src_log log : Logs.LOG)

module Counter = Hopi_obs.Counter
module Histogram = Hopi_obs.Histogram
module Trace = Hopi_obs.Trace
module Registry = Hopi_obs.Registry

let m_joins = Registry.counter "hopi_join_psg_total" ~help:"PSG joins run"

let m_entries =
  Registry.counter "hopi_join_psg_entries_total"
    ~help:"Cover entries added by PSG joins"

let m_out_emitted =
  Registry.counter "hopi_join_psg_out_emitted_total"
    ~help:"H-hat out-side entries pushed into the PSG join's task buffers"

let m_fixpoint_rounds =
  Registry.counter "hopi_join_psg_fixpoint_rounds_total"
    ~help:"H-bar fixpoint propagation rounds (partitioned strategy)"

let h_psg_nodes =
  Registry.histogram "hopi_join_psg_nodes" ~help:"PSG nodes per join"

let h_psg_edges =
  Registry.histogram "hopi_join_psg_edges" ~help:"PSG edges per join"

let h_psg_chunks =
  Registry.histogram "hopi_join_psg_partitions"
    ~help:"PSG partitions (chunks) per join"

let h_hbar_targets =
  Registry.histogram "hopi_join_psg_hbar_targets"
    ~help:"H-bar target-set size per link source"

let h_task_ns =
  Registry.histogram "hopi_join_psg_task_duration_ns"
    ~help:"Per-item time of parallelisable join work (chunk closures, \
           ancestor/descendant expansions)"

type strategy = One_closure | Partitioned of int

type stats = {
  psg_nodes : int;
  psg_edges : int;
  psg_partitions : int;
  entries_added : int;
  cpu_seconds : float;
}

(* The parallel sections below run read-only item functions on the pool
   (BFS over the frozen PSG, closure of a chunk subgraph, label expansion
   against the frozen partition covers) and collect results into per-index
   slots; all writes to shared structures happen afterwards on the calling
   domain, iterating the slots in sorted order.  That split is what keeps
   the join deterministic — and hence the final cover bit-identical — for
   every [jobs] value. *)

type par_clock = { items : Timer.Acc.t; wall : Timer.Acc.t }

(* [pmap] also clocks the region: the join's CPU time is its own wall time
   with each parallel region's wall replaced by the summed item times —
   the sequential sections count once, the fanned-out work per domain. *)
let pmap pool pc n f =
  let t0 = Timer.start () in
  let r =
    match pool with
    | None -> Array.init n f
    | Some pool -> Pool.parallel_map pool n f
  in
  Timer.Acc.add_ns pc.wall (Timer.elapsed_ns t0);
  r

(* Run [f i], record its duration into [cpu] and the task histogram. *)
let task pc f i =
  let t0 = Timer.start () in
  let r = f i in
  let ns = Timer.elapsed_ns t0 in
  Timer.Acc.add_ns pc.items ns;
  Histogram.observe h_task_ns (Int64.to_int ns);
  r

let sorted_array ihs =
  let a = Array.make (Ihs.cardinal ihs) 0 in
  let i = ref 0 in
  Ihs.iter
    (fun x ->
      a.(!i) <- x;
      incr i)
    ihs;
  Array.sort compare a;
  a

(* H̄out as a table: link source -> the dense numbers (positions in
   [targets], ascending) of the link targets it reaches in the PSG, the
   source itself excluded (self-entries are implicit).  One closure of the
   whole PSG answers every source: its component bitsets share the work
   that a traversal per source would repeat. *)
let hbar_closure (psg : Psg.t) ~targets =
  let sources = sorted_array psg.Psg.sources in
  let reached = Closure.succs_among psg.Psg.graph ~from:sources ~among:targets in
  let hbar = Hashtbl.create (Array.length sources) in
  Array.iteri
    (fun i s ->
      let ks = reached.(i) in
      (* a source that is also a target reaches itself *)
      let ks =
        if Array.exists (fun k -> targets.(k) = s) ks then
          Array.of_list (List.filter (fun k -> targets.(k) <> s) (Array.to_list ks))
        else ks
      in
      if ks <> [||] then Hashtbl.replace hbar s ks)
    sources;
  (hbar, 1)

(* The paper's recursion: partition the PSG so that no link edge crosses
   partitions (grouping link edges with union-find guarantees the required
   property: every cross-partition PSG edge is a within-element-partition
   connection, i.e. goes from a link target to a link source), compute
   partial H̄ covers per PSG partition from materialised closures, and
   propagate along cross edges until a fixpoint. *)
let hbar_partitioned ?pool ~pc (psg : Psg.t) ~max_connections =
  let uf = Union_find.create () in
  Digraph.iter_nodes psg.Psg.graph (fun v -> ignore (Union_find.find uf v));
  List.iter (fun (s, t) -> Union_find.union uf s t) psg.Psg.link_edges;
  (* greedily pack link-edge components into chunks within the closure
     budget; a component is atomic *)
  let components =
    Hashtbl.fold (fun _ members acc -> members :: acc) (Union_find.classes uf) []
    |> List.map (List.sort compare)
    |> List.sort compare
  in
  let chunk_of = Hashtbl.create 64 in
  let n_chunks = ref 0 in
  let current = ref [] and current_graph = ref (Digraph.create ()) in
  let flush_chunk () =
    if !current <> [] then begin
      List.iter (fun v -> Hashtbl.replace chunk_of v !n_chunks) !current;
      incr n_chunks;
      current := [];
      current_graph := Digraph.create ()
    end
  in
  let add_members g members =
    List.iter
      (fun v ->
        Digraph.add_node g v;
        Digraph.iter_succ psg.Psg.graph v (fun w ->
            if Digraph.mem_node g w then Digraph.add_edge g v w);
        Digraph.iter_pred psg.Psg.graph v (fun u ->
            if Digraph.mem_node g u then Digraph.add_edge g u v))
      members
  in
  List.iter
    (fun members ->
      add_members !current_graph members;
      if
        !current <> []
        && Closure.count_connections !current_graph > max_connections
      then begin
        (* roll back, close the chunk, start fresh with this component *)
        List.iter (fun v -> Digraph.remove_node !current_graph v) members;
        flush_chunk ();
        add_members !current_graph members
      end;
      current := members @ !current)
    components;
  flush_chunk ();
  (* per-chunk closures: chunks are disjoint subgraphs, so their closures
     compute independently on the pool *)
  let chunk_members = Array.make (max !n_chunks 1) [] in
  Hashtbl.iter
    (fun v ch -> chunk_members.(ch) <- v :: chunk_members.(ch))
    chunk_of;
  let chunk_closure =
    pmap pool pc
      (Array.length chunk_members)
      (task pc (fun ch ->
           let keep = Ihs.create () in
           List.iter (fun v -> Ihs.add keep v) chunk_members.(ch);
           Closure.compute (Digraph.induced_subgraph psg.Psg.graph keep)))
  in
  (* initial H̄ within chunks *)
  let hbar = Hashtbl.create (Ihs.cardinal psg.Psg.sources) in
  let hbar_of s =
    match Hashtbl.find_opt hbar s with
    | Some set -> set
    | None ->
      let set = Ihs.create () in
      Hashtbl.add hbar s set;
      set
  in
  Ihs.iter
    (fun s ->
      let clo = chunk_closure.(Hashtbl.find chunk_of s) in
      let set = hbar_of s in
      Int_set.iter
        (fun x -> if x <> s && Ihs.mem psg.Psg.targets x then Ihs.add set x)
        (Closure.succs clo s))
    psg.Psg.sources;
  (* cross-chunk edges: all go target -> source by construction *)
  let cross = ref [] in
  Digraph.iter_edges psg.Psg.graph (fun x y ->
      if Hashtbl.find chunk_of x <> Hashtbl.find chunk_of y then begin
        assert (Ihs.mem psg.Psg.targets x && Ihs.mem psg.Psg.sources y);
        cross := (x, y) :: !cross
      end);
  (* link-source ancestors of a target within its chunk *)
  let chunk_source_ancestors t =
    let clo = chunk_closure.(Hashtbl.find chunk_of t) in
    Int_set.filter (fun a -> Ihs.mem psg.Psg.sources a) (Closure.preds clo t)
  in
  let anc_cache = Hashtbl.create 64 in
  let ancestors_of t =
    match Hashtbl.find_opt anc_cache t with
    | Some a -> a
    | None ->
      let a = chunk_source_ancestors t in
      Hashtbl.add anc_cache t a;
      a
  in
  (* fixpoint propagation: H̄out(a) ∪= H̄out(s) ∪ ({s} ∩ targets) for each
     cross edge (t, s) and each source ancestor a of t (cycles across chunks
     make a single topological pass insufficient) *)
  let changed = ref true in
  while !changed do
    Counter.incr m_fixpoint_rounds;
    changed := false;
    List.iter
      (fun (t, s) ->
        let from_s = Hashtbl.find_opt hbar s in
        let s_is_target = Ihs.mem psg.Psg.targets s in
        Int_set.iter
          (fun a ->
            let set = hbar_of a in
            let before = Ihs.cardinal set in
            (match from_s with
             | Some src -> Ihs.iter (fun x -> if x <> a then Ihs.add set x) src
             | None -> ());
            if s_is_target && s <> a then Ihs.add set s;
            if Ihs.cardinal set > before then changed := true)
          (ancestors_of t))
      !cross
  done;
  (hbar, !n_chunks)

(* [hbar_partitioned]'s table in [hbar_closure]'s form: each set holds
   link targets only, so one merge pass against [targets] numbers it *)
let densify ~targets h =
  let out = Hashtbl.create (Hashtbl.length h) in
  Hashtbl.iter
    (fun s set ->
      let k = ref 0 in
      let ks =
        Array.map
          (fun t ->
            while targets.(!k) < t do
              incr k
            done;
            !k)
          (sorted_array set)
      in
      Hashtbl.replace out s ks)
    h;
  out

(* {1 The apply pipeline}

   Building the final cover is sort-then-merge: pool tasks emit join
   entries as packed (node, center) ints into a buffer and return them
   sorted (stage [join.psg.sort]); each direction's task arrays are
   concatenated and sorted into one stream (stage [join.psg.merge]); and
   one linear merge of the partition covers' rows with the two streams
   writes the final cover's flat rows (stage [join.psg.bulk]).

   Every entry is emitted once.  Out-side, H̄out(s) is copied to every
   ancestor of s, and the ancestor sets of one partition's link sources
   overlap heavily.  All those ancestors lie in s's own element partition
   (Theorem 1), so one task per partition sees every copy of its entries.
   It walks each ancestor a once, over the H̄out sets of all the link
   sources a reaches, and a stamp per link target (the last ancestor it
   was emitted for) drops the repeats.  No two partitions share an
   ancestor, so a worker's stamps never need clearing between tasks, and
   the tasks' arrays are disjoint.  In-side entries are distinct by
   construction (each target is the center of its own).  The sorted
   stream is therefore the canonical entry set, independent of job count
   and task boundaries, which keeps stores byte-identical for every
   [--jobs]. *)

(* A task's packed entries, in a buffer that doubles when full.  Sorting
   them also drops repeats: a backstop, as every entry is emitted once.
   The sort's work space lives with the buffer: a fresh one per task would
   be garbage the size of the buffer, and the GC lets the heap grow to
   several times the live data before reclaiming it. *)
type buf = { mutable a : int array; mutable scratch : int array; mutable n : int }

let buf_create () = { a = Array.make 4096 0; scratch = Array.make 4096 0; n = 0 }

let push b v =
  if b.n = Array.length b.a then begin
    let a = Array.make (2 * b.n) 0 in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a;
    b.scratch <- Array.make (2 * b.n) 0
  end;
  b.a.(b.n) <- v;
  b.n <- b.n + 1

(* sorted, duplicate-free *)
let contents b = Array.sub b.a 0 (Radix_sort.sort_uniq_prefix ~scratch:b.scratch b.a b.n)

(* [collect pool pc n ~state fill] is
   [[| entries of fill st b 0; ...; fill st b (n-1) |]], each sorted and
   duplicate-free.  The tasks run on the pool; each worker owns one buffer
   and one [st = state ()], and keeps both for every task it takes, so a
   buffer grows once per worker, not once per task (large arrays allocated
   and dropped task after task fragment the memory the GC takes them from,
   and the build's peak RSS grows with it). *)
let collect pool pc n ~state fill =
  let results = Array.make n [||] in
  let next = Atomic.make 0 in
  let jobs = match pool with Some p -> Pool.jobs p | None -> 1 in
  let worker _ =
    let b = buf_create () and st = state () in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <-
          task pc
            (fun i ->
              b.n <- 0;
              fill st b i;
              contents b)
            i;
        loop ()
      end
    in
    loop ()
  in
  ignore (pmap pool pc (max 1 (min jobs n)) worker);
  results

(* one sorted stream from a direction's task arrays, which concatenated
   already stand in center order within each node: an out-side task holds
   all its nodes' entries, sorted, and no two tasks share a node; in-side
   tasks come in ascending target order, one center each.  So a stable
   sort on the node half of the packed entries (bits 31 up) is enough.
   The two directions share one sort work space. *)
let merged ~scratch parts =
  let a = Array.concat (Array.to_list parts) in
  let k = Radix_sort.sort_uniq_prefix ~scratch ~from_bit:31 a (Array.length a) in
  if k = Array.length a then a else Array.sub a 0 k

let join ?(strategy = One_closure) ?pool c (p : Partitioning.t) ~partition_covers =
  Counter.incr m_joins;
  let t_all = Timer.start () in
  let pc = { items = Timer.Acc.create (); wall = Timer.Acc.create () } in
  (* partition covers have disjoint nodes, so their union has the sum of
     their sizes *)
  let before = Array.fold_left (fun acc cov -> acc + Cover.size cov) 0 partition_covers in
  let cover_of_element e = partition_covers.(Partitioning.part_of_element p c e) in
  let reaches t s =
    Partitioning.part_of_element p c t = Partitioning.part_of_element p c s
    && Cover.connected (cover_of_element t) t s
  in
  let psg =
    Trace.with_span "join.psg.build_psg" (fun () ->
        Psg.build ~part_of:(Partitioning.part_of_element p c) ~links:p.Partitioning.cross_links
          ~reaches_within_partition:reaches)
  in
  Histogram.observe h_psg_nodes (Digraph.n_nodes psg.Psg.graph);
  Histogram.observe h_psg_edges (Digraph.n_edges psg.Psg.graph);
  (* the link targets, ascending; a target's position is its dense number *)
  let targets = sorted_array psg.Psg.targets in
  let hbar, psg_partitions =
    Trace.with_span "join.psg.hbar" (fun () ->
        match strategy with
        | One_closure -> hbar_closure psg ~targets
        | Partitioned max_connections ->
          let h, n_chunks = hbar_partitioned ?pool ~pc psg ~max_connections in
          (densify ~targets h, n_chunks))
  in
  Histogram.observe h_psg_chunks psg_partitions;
  Hashtbl.iter (fun _ ks -> Histogram.observe h_hbar_targets (Array.length ks)) hbar;
  let final =
    Trace.with_span "join.psg.apply" (fun () ->
        (* stage 1 — emit.  Ĥ out-side: H̄out(s) is copied to every ancestor
           of s in s's element partition (the ancestors include s itself,
           which realises H̄ proper).  Ĥ in-side: every partition-level
           descendant of a link target t gets t in its Lin (H̄in(t) = {t} is
           implicit on t itself).  Expanding the ancestor/descendant sets
           only reads the (frozen) partition covers, so the tasks run on the
           pool. *)
        let out_parts, in_parts =
          Trace.with_span "join.psg.sort" (fun () ->
              let by_part = Array.make p.Partitioning.n [] in
              Hashtbl.iter
                (fun s _ ->
                  let q = Partitioning.part_of_element p c s in
                  by_part.(q) <- s :: by_part.(q))
                hbar;
              let by_part =
                Array.of_list (List.filter (fun l -> l <> []) (Array.to_list by_part))
              in
              let out_parts =
                collect pool pc (Array.length by_part)
                  ~state:(fun () -> Array.make (Array.length targets) (-1))
                  (fun stamp b i ->
                    (* ancestor -> the H̄out sets of the link sources it reaches *)
                    let reached = Hashtbl.create 256 in
                    List.iter
                      (fun s ->
                        let ks = Hashtbl.find hbar s in
                        Ihs.iter
                          (fun a ->
                            let sets = Option.value (Hashtbl.find_opt reached a) ~default:[] in
                            Hashtbl.replace reached a (ks :: sets))
                          (Cover.ancestors (cover_of_element s) s))
                      by_part.(i);
                    let emitted = ref 0 in
                    Hashtbl.iter
                      (fun a sets ->
                        List.iter
                          (Array.iter (fun k ->
                               if stamp.(k) <> a then begin
                                 stamp.(k) <- a;
                                 if targets.(k) <> a then begin
                                   push b (Cover.pack_entry ~node:a ~center:targets.(k));
                                   incr emitted
                                 end
                               end))
                          sets)
                      reached;
                    Counter.add m_out_emitted !emitted)
              in
              let in_parts =
                collect pool pc (Array.length targets) ~state:ignore (fun () b i ->
                    let t = targets.(i) in
                    Ihs.iter
                      (fun d -> if d <> t then push b (Cover.pack_entry ~node:d ~center:t))
                      (Cover.descendants (cover_of_element t) t))
              in
              (out_parts, in_parts))
        in
        (* stage 2 — one sorted entry stream per direction *)
        let out_entries, in_entries =
          Trace.with_span "join.psg.merge" (fun () ->
              let length parts = Array.fold_left (fun n a -> n + Array.length a) 0 parts in
              let scratch = Array.make (max (length out_parts) (length in_parts)) 0 in
              (merged ~scratch out_parts, merged ~scratch in_parts))
        in
        (* stage 3 — one merge of the partition covers' rows with the two
           streams into the final, frozen cover *)
        Trace.with_span "join.psg.bulk" (fun () ->
            (* the task buffers, task arrays and sort work space are
               garbage by now, together about as large as the cover about
               to be written: collected first, the heap does not grow for
               the cover on top of them (1000 DBLP docs, --jobs 1: 138
               against 181 MB peak heap, 140 against 186 MiB peak RSS) *)
            Gc.full_major ();
            Cover.merge partition_covers ~lout:out_entries ~lin:in_entries))
  in
  let entries_added = Cover.size final - before in
  Counter.add m_entries entries_added;
  Log.info (fun m ->
      m "PSG join: %d nodes / %d edges / %d chunks -> %d entries"
        (Digraph.n_nodes psg.Psg.graph) (Digraph.n_edges psg.Psg.graph)
        psg_partitions entries_added);
  ( final,
    {
      psg_nodes = Digraph.n_nodes psg.Psg.graph;
      psg_edges = Digraph.n_edges psg.Psg.graph;
      psg_partitions;
      entries_added;
      cpu_seconds =
        Timer.elapsed_s t_all -. Timer.Acc.total_s pc.wall
        +. Timer.Acc.total_s pc.items;
    } )
