module Cover = Hopi_twohop.Cover
module Ihs = Hopi_util.Int_hashset
module Union_find = Hopi_util.Union_find
module Digraph = Hopi_graph.Digraph
module Closure = Hopi_graph.Closure
module Bitrow = Hopi_util.Bitrow
module Collection = Hopi_collection.Collection
module Partitioning = Hopi_collection.Partitioning
module Psg = Hopi_collection.Psg
module Pool = Hopi_util.Pool
module Timer = Hopi_util.Timer

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
    ~help:"H-hat out-side entries the PSG join's per-node flatten emits"

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
    ~help:"Per-item time of parallelisable join work (chunk kernel passes, \
           node-range flattens of the exit and entry rows)"

type strategy = One_closure | Partitioned of int

type stats = {
  psg_nodes : int;
  psg_edges : int;
  psg_partitions : int;
  entries_added : int;
  cpu_seconds : float;
}

(* The parallel sections below run read-only item functions on the pool
   (a kernel pass over a chunk of the frozen PSG, the flatten of a node
   range against the frozen partition covers) and collect results into
   per-index slots; all writes to shared structures happen afterwards on
   the calling domain, iterating the slots in sorted order.  That split
   is what keeps the join deterministic — and hence the final cover
   bit-identical — for every [jobs] value. *)

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

(* The paper's recursion, answering as [Closure.succs_among g ~from:sources
   ~among:targets] does: partition the PSG so that no link edge crosses
   partitions (grouping link edges with union-find guarantees the required
   property: every cross-partition PSG edge is a within-element-partition
   connection, i.e. goes from a link target to a link source), read each
   partition's partial H̄ off one kernel pass over its subgraph, and
   propagate along cross edges until a fixpoint. *)
let hbar_partitioned ?pool ~pc (psg : Psg.t) ~max_connections =
  let sources = psg.Psg.sources and targets = psg.Psg.targets in
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
  let chunk_members = Array.make (max !n_chunks 1) [] in
  Hashtbl.iter
    (fun v ch -> chunk_members.(ch) <- v :: chunk_members.(ch))
    chunk_of;
  (* per chunk, its link sources and targets by global number, and one
     kernel pass over its subgraph: chunks are disjoint subgraphs, so the
     passes run independently on the pool *)
  let chunk_rows =
    pmap pool pc
      (Array.length chunk_members)
      (task pc (fun ch ->
           let members = List.sort compare chunk_members.(ch) in
           let keep = Ihs.create () in
           List.iter (Ihs.add keep) members;
           let ends numbered =
             Array.of_list (List.filter (fun v -> Cover.slot numbered v >= 0) members)
           in
           let from = ends sources and among = ends targets in
           let reached =
             Closure.succs_among (Digraph.induced_subgraph psg.Psg.graph keep) ~from ~among
           in
           ( Array.map (Cover.slot sources) from,
             Array.map (Array.map (fun j -> Cover.slot targets among.(j))) reached )))
  in
  (* H̄ as one dense bit row per source over the target numbers, set to
     the chunk rows; inverted, they give each target its chunk-source
     ancestors, the target itself counting when it is a source *)
  let bits = Bitrow.bits in
  let words = (Array.length targets / bits) + 1 in
  let rows = Array.init (Array.length sources) (fun _ -> Array.make words 0) in
  let set r j = r.(j / bits) <- r.(j / bits) lor (1 lsl (j mod bits)) in
  let ancestors = Array.make (Array.length targets) [] in
  Array.iter
    (fun (from, reached) ->
      Array.iteri
        (fun i a ->
          Array.iter
            (fun j ->
              set rows.(a) j;
              ancestors.(j) <- a :: ancestors.(j))
            reached.(i))
        from)
    chunk_rows;
  Array.iteri
    (fun j t ->
      let a = Cover.slot sources t in
      if a >= 0 && not (Bitrow.mem ~lo:0 rows.(a) j) then ancestors.(j) <- a :: ancestors.(j))
    targets;
  (* cross-chunk edges: all go target -> source by construction *)
  let cross = ref [] in
  Digraph.iter_edges psg.Psg.graph (fun x y ->
      if Hashtbl.find chunk_of x <> Hashtbl.find chunk_of y then begin
        let j = Cover.slot targets x and i = Cover.slot sources y in
        assert (j >= 0 && i >= 0);
        cross := (j, i, Cover.slot targets y) :: !cross
      end);
  (* fixpoint propagation: row(a) ∪= row(s) ∪ ({s} ∩ targets) for each
     cross edge (t, s) and each source ancestor a of t (cycles across chunks
     make a single topological pass insufficient) *)
  let changed = ref true in
  while !changed do
    Counter.incr m_fixpoint_rounds;
    changed := false;
    List.iter
      (fun (j, i, sj) ->
        let from_s = rows.(i) in
        List.iter
          (fun a ->
            let r = rows.(a) in
            for w = 0 to words - 1 do
              let x = r.(w) lor from_s.(w) in
              if x <> r.(w) then begin
                r.(w) <- x;
                changed := true
              end
            done;
            if sj >= 0 && not (Bitrow.mem ~lo:0 r sj) then begin
              set r sj;
              changed := true
            end)
          ancestors.(j))
      !cross
  done;
  let reached r =
    let ks = Array.make (Bitrow.count r) 0 and n = ref 0 in
    Bitrow.iter ~lo:0 r (fun j ->
        ks.(!n) <- j;
        incr n);
    ks
  in
  (Array.map reached rows, !n_chunks)

(* {1 The apply pipeline}

   The row stage ({!Psg.routes}, the router's) folds H̄ into per-center
   rows over the partition covers' labels.  Within a partition [a ⇝ s]
   exactly when a center of [Lout(a) ∪ {a}] is in [Lin(s) ∪ {s}], and a
   center lies in one partition, so Ĥout(a) — H̄out(s) over the sources
   [s] that [a] reaches, minus [a] — is the union of [exit(c)] over
   [c ∈ Lout(a) ∪ {a}], and Ĥin(v) that of [entry(c')] over
   [c' ∈ Lin(v) ∪ {v}], minus [v] (Theorem 1).  Pool tasks flatten
   contiguous ranges of the ascending node ids (stage [join.psg.sort]),
   so every node's entries come out once and in center order, and the
   task arrays concatenated are sorted (stage [join.psg.merge]).  One
   merge of the partition covers' rows with the two streams writes the
   final cover (stage [join.psg.bulk]).  No entry depends on task
   boundaries or domains: stores are byte-identical for every [--jobs]. *)

(* nodes per flatten task *)
let task_nodes = 1024

let join ?(strategy = One_closure) ?pool c (p : Partitioning.t) ~partition_covers =
  Counter.incr m_joins;
  let t_all = Timer.start () in
  let pc = { items = Timer.Acc.create (); wall = Timer.Acc.create () } in
  (* partition covers have disjoint nodes, so their union has the sum of
     their sizes *)
  let before = Array.fold_left (fun acc cov -> acc + Cover.size cov) 0 partition_covers in
  let cover_of_element e = partition_covers.(Partitioning.part_of_element p c e) in
  let label iter v f = iter (cover_of_element v) v f in
  let psg =
    Trace.with_span "join.psg.build_psg" (fun () ->
        Psg.build ~links:p.Partitioning.cross_links ~lin:(label Cover.iter_lin)
          ~lout:(label Cover.iter_lout))
  in
  Histogram.observe h_psg_nodes (Digraph.n_nodes psg.Psg.graph);
  Histogram.observe h_psg_edges (Digraph.n_edges psg.Psg.graph);
  (* the link sources and targets, ascending; a target's position is its
     dense number *)
  let sources = psg.Psg.sources and targets = psg.Psg.targets in
  let hbar, psg_partitions =
    Trace.with_span "join.psg.hbar" (fun () ->
        (* both strategies answer in {!Closure.succs_among}'s form: per
           link source, the dense numbers of the link targets it reaches
           over at least one PSG edge.  One closure of the whole PSG
           answers every source: its component bitsets share the work
           that a traversal per source would repeat. *)
        let reached, n_chunks =
          match strategy with
          | One_closure -> (Closure.succs_among psg.Psg.graph ~from:sources ~among:targets, 1)
          | Partitioned max_connections ->
            hbar_partitioned ?pool ~pc psg ~max_connections
        in
        (* a source that is also a target reaches itself on a PSG cycle,
           but H̄out(s) leaves s out *)
        ( Array.mapi
            (fun i ks ->
              let self = Cover.slot targets sources.(i) in
              if Array.mem self ks then Array.of_seq (Seq.filter (( <> ) self) (Array.to_seq ks))
              else ks)
            reached,
          n_chunks ))
  in
  Histogram.observe h_psg_chunks psg_partitions;
  Array.iter (fun ks -> if ks <> [||] then Histogram.observe h_hbar_targets (Array.length ks)) hbar;
  let final =
    Trace.with_span "join.psg.apply" (fun () ->
        (* stage 1 — the row stage over H̄, then every node's flatten on the
           pool: both only read the frozen partition covers *)
        let out_parts, in_parts =
          Trace.with_span "join.psg.sort" (fun () ->
              let exits, entries =
                Psg.routes ~targets ~lin:(label Cover.iter_lin) ~lout:(label Cover.iter_lout)
                  (Psg.of_sets ~keys:sources hbar)
              in
              let nodes = ref [] in
              Collection.iter_elements c (fun v -> nodes := v :: !nodes);
              let nodes = Array.of_list (List.sort Int.compare !nodes) in
              let n = Array.length nodes in
              let exit_at = Psg.index exits and entry_at = Psg.index entries in
              (* a task's entries, counted, then written at their exact size *)
              let parts =
                pmap pool pc
                  ((n + task_nodes - 1) / task_nodes)
                  (task pc (fun i ->
                       let s = Psg.scratch (Array.length targets) in
                       let pass emit =
                         for x = i * task_nodes to min n ((i + 1) * task_nodes) - 1 do
                           let a = nodes.(x) in
                           let each d j =
                             if targets.(j) <> a then emit d (Cover.pack_entry ~node:a ~center:targets.(j))
                           in
                           Psg.flatten s exits exit_at (label Cover.iter_lout) a (each 0);
                           Psg.flatten s entries entry_at (label Cover.iter_lin) a (each 1)
                         done
                       in
                       let len = [| 0; 0 |] in
                       pass (fun d _ -> len.(d) <- len.(d) + 1);
                       let part = Array.map (fun l -> Array.make l 0) len in
                       Array.fill len 0 2 0;
                       pass (fun d e ->
                           part.(d).(len.(d)) <- e;
                           len.(d) <- len.(d) + 1);
                       (part.(0), part.(1))))
              in
              (Array.map fst parts, Array.map snd parts))
        in
        (* stage 2 — one sorted stream per direction: the node ranges ascend *)
        let out_entries, in_entries =
          Trace.with_span "join.psg.merge" (fun () ->
              let concat parts = Array.concat (Array.to_list parts) in
              (concat out_parts, concat in_parts))
        in
        Counter.add m_out_emitted (Array.length out_entries);
        (* stage 3 — the partition covers' rows and both streams, merged *)
        Trace.with_span "join.psg.bulk" (fun () ->
            (* the task arrays are garbage now: collected first, the heap
               does not grow for the cover on top of them *)
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
