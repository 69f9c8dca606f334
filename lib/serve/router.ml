(* K-shard split + scatter-gather routing (contract in the interface).

   Correctness rests on the paper's path decomposition: any path between
   elements of different partitions factors at its cross-partition link
   edges into within-partition segments glued by links.  The routing
   index therefore needs exactly (a) per-shard covers for the
   within-partition segments and (b) the transitive closure of the PSG —
   whose nodes are the cross-link endpoints, whose link edges are the
   cross links themselves, and whose within edges connect a link target
   to every link source it reaches inside its own partition.  A query
   crossing shards resolves as

     u ==within==> s  --PSG closure-->  t  ==within==> v

   and both within segments are 2-hop label merges, so the whole path is
   a second-level 2-hop merge whose centers are shard-cover centers
   (§3.4, with the cross-link endpoints preselected as in §4.2): [exit c]
   folds [c ⇝ s ⇝ t] over every source [s] that names [c] (in [Lin(s)] or
   as [s] itself), [entry c'] lists every target [t] that reaches [c']
   (in [Lout(t)] or as [t] itself), and [u ⇝ v] crosses iff some
   [c ∈ Lout(u) ∪ {u}] and [c' ∈ Lin(v) ∪ {v}] have a target in common.
   The closure is multi-hop, so paths that traverse — or re-enter — any
   number of shards are covered. *)

module Collection = Hopi_collection.Collection
module Partitioning = Hopi_collection.Partitioning
module Psg = Hopi_collection.Psg
module Digraph = Hopi_graph.Digraph
module Closure = Hopi_graph.Closure
module Builder = Hopi_twohop.Builder
module Dist_builder = Hopi_twohop.Dist_builder
module Cover = Hopi_twohop.Cover
module Dist_cover = Hopi_twohop.Dist_cover
module S = Hopi_storage
module Ihs = Hopi_util.Int_hashset
module Codec = Hopi_twohop.Label_codec
module Registry = Hopi_obs.Registry
module Counter = Hopi_obs.Counter
module Gauge = Hopi_obs.Gauge

let m_single =
  Registry.counter "hopi_router_single_shard_total"
    ~help:"Queries answered by one shard without consulting the PSG closure"

let m_scatter =
  Registry.counter "hopi_router_scatter_total"
    ~help:"Queries resolved through the PSG closure across shards"

let g_rows =
  Registry.gauge "hopi_router_exit_rows"
    ~help:"Exit and entry rows the open router holds in memory"

let g_bytes =
  Registry.gauge "hopi_router_exit_bytes"
    ~help:"Encoded bytes of the open router's exit and entry rows"

type split_stats = {
  shards : int;
  elements : int;
  cross_links : int;
  psg_closure : int;
  entries : int;
}

let shard_path ~dir k = Filename.concat dir (Printf.sprintf "shard-%03d.db" k)

let routing_path ~dir = Filename.concat dir "routing.idx"

let magic = "hopi-shard-routing 1"

(* {1 Split} *)

(* deterministic greedy balance: heaviest documents first, each to the
   currently lightest shard (ties: lowest shard index) *)
let assign_docs c k =
  let docs =
    Collection.doc_ids c
    |> List.map (fun d -> (d, Collection.n_elements_of_doc c d))
    |> List.sort (fun (d1, w1) (d2, w2) ->
           if w1 <> w2 then compare w2 w1 else compare d1 d2)
  in
  let load = Array.make k 0 in
  let part_of_doc = Hashtbl.create 64 in
  List.iter
    (fun (d, w) ->
      let best = ref 0 in
      for p = 1 to k - 1 do
        if load.(p) < load.(!best) then best := p
      done;
      load.(!best) <- load.(!best) + w;
      Hashtbl.replace part_of_doc d !best)
    docs;
  part_of_doc

(* weighted single-source shortest paths over the (tiny) PSG, starting
   from [s]'s out-edges so a cycle back to [s] is found at its real
   positive distance; [weight u v] may answer [None] for an edge that
   should not be crossed (never happens for well-formed PSGs). *)
let psg_from graph ~weight s =
  let dist = Hashtbl.create 16 in
  (* unvisited frontier as a simple priority list — PSGs are small *)
  let module Pq = Set.Make (struct
    type t = int * int (* distance, node *)

    let compare = compare
  end) in
  let pq = ref Pq.empty in
  let relax d v =
    match Hashtbl.find_opt dist v with
    | Some d' when d' <= d -> ()
    | _ ->
      Hashtbl.replace dist v d;
      pq := Pq.add (d, v) !pq
  in
  Digraph.iter_succ graph s (fun v ->
      match weight s v with None -> () | Some w -> relax w v);
  let rec drain () =
    match Pq.min_elt_opt !pq with
    | None -> ()
    | Some ((d, u) as el) ->
      pq := Pq.remove el !pq;
      if Hashtbl.find_opt dist u = Some d then
        Digraph.iter_succ graph u (fun v ->
            match weight u v with None -> () | Some w -> relax (d + w) v);
      drain ()
  in
  drain ();
  dist

let split ?(vfs = S.Vfs.real) ?(dist = false) ?(fsync = true) ~k ~dir c =
  if k < 1 then invalid_arg "Router.split: k < 1";
  let k = max 1 (min k (max 1 (Collection.n_docs c))) in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let part = Partitioning.make c ~part_of_doc:(assign_docs c k) ~n:k in
  (* per-shard: build the within-partition cover, persist it, and keep an
     in-memory reachability/distance oracle for the PSG edges *)
  let entries = ref 0 in
  let oracles =
    Array.init k (fun p ->
        let sub = Partitioning.element_subgraph part c p in
        let reach, pdist, write =
          if dist then begin
            let dc, _ = Dist_builder.build sub in
            ( Dist_cover.connected dc,
              Dist_cover.dist dc,
              fun pager -> S.Cover_store.of_dist_cover pager dc )
          end
          else begin
            let cover, _ = Builder.build (Closure.compute sub) in
            ( Cover.connected cover,
              (fun u v -> if Cover.connected cover u v then Some 0 else None),
              fun pager -> S.Cover_store.of_cover pager cover )
          end
        in
        let pager = S.Pager.create_vfs ~fsync ~vfs (shard_path ~dir p) in
        let store = write pager in
        S.Cover_store.save store;
        entries := !entries + S.Cover_store.n_entries store;
        S.Pager.close pager;
        (reach, pdist))
  in
  let reach_within t s =
    let p = Partitioning.part_of_element part c t in
    fst oracles.(p) t s
  in
  let psg = Psg.build c part ~reaches_within_partition:reach_within in
  let link_set = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace link_set e ()) psg.Psg.link_edges;
  (* PSG edge weights: a cross link is one real edge; a within edge costs
     the partition's stored distance (0 on plain covers, where only
     reachability matters) *)
  let weight u v =
    if Hashtbl.mem link_set (u, v) then Some 1
    else begin
      let p = Partitioning.part_of_element part c u in
      snd oracles.(p) u v
    end
  in
  let closure = ref [] and n_closure = ref 0 in
  Ihs.iter
    (fun s ->
      let d = psg_from psg.Psg.graph ~weight s in
      Hashtbl.iter
        (fun t dt ->
          if Ihs.mem psg.Psg.targets t then begin
            closure := (s, t, dt) :: !closure;
            incr n_closure
          end)
        d)
    psg.Psg.sources;
  (* the routing index: element map, cross links, PSG closure *)
  let buf = Buffer.create 4096 and crc = ref Hopi_util.Crc32.init in
  let line fmt =
    Printf.ksprintf
      (fun l ->
        Buffer.add_string buf l;
        crc := Hopi_util.Crc32.update !crc (Bytes.unsafe_of_string l) ~pos:0 ~len:(String.length l))
      (fmt ^^ "\n")
  in
  line "%s" magic;
  line "shards %d" k;
  line "dist %d" (if dist then 1 else 0);
  let elems = ref [] and n_elems = ref 0 in
  Collection.iter_elements c (fun e ->
      elems := e :: !elems;
      incr n_elems);
  line "elements %d" !n_elems;
  List.iter
    (fun e -> line "e %d %d" e (Partitioning.part_of_element part c e))
    (List.sort compare !elems);
  let links = List.sort compare psg.Psg.link_edges in
  line "links %d" (List.length links);
  List.iter (fun (u, v) -> line "l %d %d" u v) links;
  line "closure %d" !n_closure;
  List.iter (fun (s, t, d) -> line "c %d %d %d" s t d) (List.sort compare !closure);
  line "end";
  Buffer.add_string buf (Printf.sprintf "crc %08lx\n" (Hopi_util.Crc32.finish !crc));
  S.Vfs.write_file vfs ~fsync (routing_path ~dir) buf;
  {
    shards = k;
    elements = !n_elems;
    cross_links = List.length links;
    psg_closure = !n_closure;
    entries = !entries;
  }

(* {1 Loading} *)

type t = {
  k : int;
  with_dist : bool;
  snaps : Snapshot.t array;
  elem_shard : (int, int) Hashtbl.t;
  has_targets : bool array;  (* per shard: does a cross link land in it? *)
  exits : (int, Codec.t) Hashtbl.t;  (* center c -> rows (t, d(c ~> t)) *)
  entries_at : (int, Codec.t) Hashtbl.t;  (* center c' -> rows (t, d(t ~> c')) *)
  rev : (int, int array) Hashtbl.t;  (* target -> the sources reaching it *)
  entries : int;
}

let parse_error path line msg =
  raise (Sys_error (Printf.sprintf "%s: bad routing index (line %d): %s" path line msg))

(* The routing index ends with a ["crc XXXXXXXX"] line: the CRC-32 of
   every byte before it.  (The parser stops at the "end" line above it.) *)
let verify_crc path data =
  let corrupt msg = S.Storage_error.raise_error (Bad_catalog (path ^ ": " ^ msg)) in
  let start = String.length data - String.length "crc XXXXXXXX\n" in
  if start < 0 || String.sub data start 4 <> "crc " || not (String.ends_with ~suffix:"\n" data)
  then corrupt "routing index has no checksum line";
  match Int32.of_string_opt ("0x" ^ String.sub data (start + 4) 8) with
  | None -> corrupt "routing index has no checksum line"
  | Some crc ->
    if crc <> Hopi_util.Crc32.digest (Bytes.unsafe_of_string data) ~pos:0 ~len:start then
      corrupt "routing index checksum mismatch"

let push h key x = Hashtbl.replace h key (x :: Option.value ~default:[] (Hashtbl.find_opt h key))

(* [f center d] once per distinct center of a label set, at the run's
   least distance (the first row of each run) *)
let iter_runs enc f =
  let last = ref (-1) in
  Codec.iter enc (fun ~center ~dist ->
      if center <> !last then begin
        last := center;
        f center dist
      end)

(* The second-level 2-hop tables, over the shards' labels (fetched
   through the shared label cache).  [targets] holds the link targets
   ascending; [closure_of] maps each link source to its closure rows
   (index into [targets], d_psg).

   exit rows: every source [s] hands its closure rows, shifted by
   [din(c, s)], to each center [c ∈ Lin(s) ∪ {s}]; a center keeps the
   least distance per target, gathered in one dense scratch array.
   entry rows: each target [t] at [dout(t, c')] under every center
   [c' ∈ Lout(t) ∪ {t}].  Both are set as gauges. *)
let routing_rows snaps elem_shard targets closure_of =
  let label dir v = Snapshot.label snaps.(Hashtbl.find elem_shard v) dir v in
  let namers = Hashtbl.create 256 in
  Hashtbl.iter
    (fun s rows ->
      push namers s (rows, 0);
      iter_runs (label S.Cover_store.Lin s) (fun c din -> push namers c (rows, din)))
    closure_of;
  let best = Array.make (Array.length targets) max_int in
  let exits = Hashtbl.create (Hashtbl.length namers) in
  Hashtbl.iter
    (fun c by ->
      let touched = ref [] in
      List.iter
        (fun (rows, din) ->
          List.iter
            (fun (ti, d) ->
              if best.(ti) = max_int then touched := ti :: !touched;
              if din + d < best.(ti) then best.(ti) <- din + d)
            rows)
        by;
      let e = Codec.Enc.create () in
      List.iter
        (fun ti ->
          Codec.Enc.row e ~center:targets.(ti) ~dist:best.(ti);
          best.(ti) <- max_int)
        (List.sort compare !touched);
      Hashtbl.replace exits c (Codec.Enc.finish e))
    namers;
  (* targets go in descending, so each center's list comes out ascending *)
  let entry_l = Hashtbl.create 64 in
  for i = Array.length targets - 1 downto 0 do
    let tg = targets.(i) in
    push entry_l tg (tg, 0);
    iter_runs (label S.Cover_store.Lout tg) (fun c dout -> push entry_l c (tg, dout))
  done;
  let entries_at = Hashtbl.create (Hashtbl.length entry_l) in
  Hashtbl.iter (fun c l -> Hashtbl.replace entries_at c (Codec.encode_pairs (Array.of_list l))) entry_l;
  let rows = ref 0 and bytes = ref 0 in
  let count _ enc =
    rows := !rows + Codec.n_rows enc;
    bytes := !bytes + Codec.size_bytes enc
  in
  Hashtbl.iter count exits;
  Hashtbl.iter count entries_at;
  Gauge.set g_rows !rows;
  Gauge.set g_bytes !bytes;
  (exits, entries_at)

let open_dir ?(vfs = S.Vfs.real) ?(pool_pages = 4096) ?(cache_mb = 64) dir =
  let path = routing_path ~dir in
  let data = S.Vfs.read_file vfs path in
  verify_crc path data;
  let lines = ref (String.split_on_char '\n' data) in
  let lineno = ref 0 in
  let line () =
    incr lineno;
    match !lines with
    | l :: rest ->
      lines := rest;
      l
    | [] -> parse_error path !lineno "truncated"
  in
  let fail msg = parse_error path !lineno msg in
  let counted prefix =
    match String.split_on_char ' ' (line ()) with
    | [ p; n ] when p = prefix -> (
      match int_of_string_opt n with Some n when n >= 0 -> n | _ -> fail (prefix ^ " count"))
    | _ -> fail ("expected \"" ^ prefix ^ " N\"")
  in
  if line () <> magic then fail "magic mismatch";
  let k = counted "shards" in
  if k < 1 then fail "no shards";
  let with_dist = counted "dist" <> 0 in
  let n_elems = counted "elements" in
  let elem_shard = Hashtbl.create (max 16 n_elems) in
  for _ = 1 to n_elems do
    match String.split_on_char ' ' (line ()) with
    | [ "e"; e; s ] -> (
      match (int_of_string_opt e, int_of_string_opt s) with
      | Some e, Some s when s >= 0 && s < k -> Hashtbl.replace elem_shard e s
      | _ -> fail "element line")
    | _ -> fail "element line"
  done;
  let shard_of_exn e =
    match Hashtbl.find_opt elem_shard e with
    | Some s -> s
    | None -> fail (Printf.sprintf "link endpoint %d not in the element map" e)
  in
  let n_links = counted "links" in
  let source_set = Ihs.create () and target_set = Ihs.create () in
  let has_targets = Array.make k false in
  for _ = 1 to n_links do
    match String.split_on_char ' ' (line ()) with
    | [ "l"; u; v ] -> (
      match (int_of_string_opt u, int_of_string_opt v) with
      | Some u, Some v ->
        ignore (shard_of_exn u : int);
        Ihs.add source_set u;
        has_targets.(shard_of_exn v) <- true;
        Ihs.add target_set v
      | _ -> fail "link line")
    | _ -> fail "link line"
  done;
  (* targets ascending, and each target's index: the dense key of the
     exit-row scratch array *)
  let targets = Array.of_list (List.sort compare (Ihs.to_list target_set)) in
  let target_index = Hashtbl.create (max 16 (Array.length targets)) in
  Array.iteri (fun i tg -> Hashtbl.replace target_index tg i) targets;
  let n_closure = counted "closure" in
  (* per source its closure rows (target index, d); per target its
     sources.  Plain shards route reachability only: every distance 0. *)
  let closure_of = Hashtbl.create 64 and rev_l = Hashtbl.create 64 in
  for _ = 1 to n_closure do
    match String.split_on_char ' ' (line ()) with
    | [ "c"; s; tg; d ] -> (
      match (int_of_string_opt s, int_of_string_opt tg, int_of_string_opt d) with
      | Some s, Some tg, Some d when d >= 0 -> (
        if not (Ihs.mem source_set s) then fail (Printf.sprintf "closure source %d is not a link source" s);
        match Hashtbl.find_opt target_index tg with
        | None -> fail (Printf.sprintf "closure target %d is not a link target" tg)
        | Some ti ->
          push closure_of s (ti, if with_dist then d else 0);
          push rev_l tg s)
      | _ -> fail "closure line")
    | _ -> fail "closure line"
  done;
  if line () <> "end" then fail "missing end marker";
  (* one shared page pool and label cache across all shard snapshots *)
  let pool = S.Pager.Read_pool.create ~pages:pool_pages () in
  let cache = Label_cache.create ~capacity_bytes:(cache_mb * 1024 * 1024) () in
  let opened = ref [] in
  let snaps =
    try
      Array.init k (fun p ->
          let s = Snapshot.open_file ~pool ~vfs ~cache (shard_path ~dir p) in
          opened := s :: !opened;
          s)
    with e ->
      (* a bad shard must not leak the ones already open *)
      List.iter Snapshot.close !opened;
      raise e
  in
  let exits, entries_at =
    try routing_rows snaps elem_shard targets closure_of
    with e ->
      List.iter Snapshot.close !opened;
      raise e
  in
  let rev = Hashtbl.create (Hashtbl.length rev_l) in
  Hashtbl.iter (fun tg l -> Hashtbl.replace rev tg (Array.of_list l)) rev_l;
  let entries = Array.fold_left (fun acc s -> acc + Snapshot.n_entries s) 0 snaps in
  { k; with_dist; snaps; elem_shard; has_targets; exits; entries_at; rev; entries }

let close t = Array.iter Snapshot.close t.snaps

let n_shards t = t.k

let with_dist t = t.with_dist

let n_nodes t = Hashtbl.length t.elem_shard

let n_entries t = t.entries

let shard_of t e = Hashtbl.find_opt t.elem_shard e

(* {1 Queries} *)

(* The routing rows of every center of [x]'s label set and of [x] itself
   (at distance 0), each with its distance from (or to) [x]. *)
let centers tbl x label =
  let acc = ref (match Hashtbl.find_opt tbl x with Some r -> [ (r, 0) ] | None -> []) in
  iter_runs label (fun c d ->
      match Hashtbl.find_opt tbl c with Some r -> acc := (r, d) :: !acc | None -> ());
  !acc

let exits_of t a u = centers t.exits u (Snapshot.label t.snaps.(a) S.Cover_store.Lout u)

let entries_of t b v = centers t.entries_at v (Snapshot.label t.snaps.(b) S.Cover_store.Lin v)

(* is there a cross path u ==> v (shards [a] and [b] may be equal: a path
   can leave shard [a] and come back)? *)
let cross_connected t a u b v =
  match exits_of t a u with
  | [] -> false
  | outs ->
    let ins = entries_of t b v in
    List.exists (fun (x, _) -> List.exists (fun (y, _) -> Codec.intersects x y) ins) outs

(* the shortest cross path u ==> v, or -1 *)
let cross_distance t a u b v =
  match exits_of t a u with
  | [] -> -1
  | outs ->
    let ins = entries_of t b v in
    let best = ref (-1) in
    List.iter
      (fun (x, du) ->
        List.iter
          (fun (y, dv) ->
            let m = Codec.merge_min x y in
            if m >= 0 && (!best < 0 || du + m + dv < !best) then best := du + m + dv)
          ins)
      outs;
    !best

let connected t u v =
  match (shard_of t u, shard_of t v) with
  | Some a, Some b ->
    if a = b && Snapshot.connected t.snaps.(a) u v then begin
      Counter.incr m_single;
      true
    end
    else begin
      Counter.incr m_scatter;
      cross_connected t a u b v
    end
  | _ ->
    Counter.incr m_single;
    false

let min_distance t u v =
  match (shard_of t u, shard_of t v) with
  | None, _ | _, None ->
    Counter.incr m_single;
    None
  | Some a, Some b ->
    let direct = if a = b then Snapshot.min_distance t.snaps.(a) u v else None in
    (* plain covers store every reachable pair at distance 0, exactly like
       an unsharded plain Cover_store; on distance-aware ones even a
       same-shard pair may be closer through other shards whenever a cross
       link lands in its shard *)
    let routed = if t.with_dist then a <> b || t.has_targets.(b) else direct = None in
    if not routed then begin
      Counter.incr m_single;
      direct
    end
    else begin
      Counter.incr m_scatter;
      match (direct, cross_distance t a u b v) with
      | _, -1 -> direct
      | Some d, c when d <= c -> direct
      | _, c -> Some c
    end

let descendants t u =
  match shard_of t u with
  | None ->
    Counter.incr m_single;
    Ihs.create ()
  | Some a ->
    let acc = Snapshot.descendants t.snaps.(a) u in
    let tset = Ihs.create () in
    List.iter (fun (rows, _) -> Codec.iter_centers rows (Ihs.add tset)) (exits_of t a u);
    Counter.incr (if Ihs.is_empty tset then m_single else m_scatter);
    Ihs.iter
      (fun tg ->
        match shard_of t tg with
        | Some b -> Ihs.iter (fun w -> Ihs.add acc w) (Snapshot.descendants t.snaps.(b) tg)
        | None -> ())
      tset;
    acc

let ancestors t v =
  match shard_of t v with
  | None ->
    Counter.incr m_single;
    Ihs.create ()
  | Some b ->
    let acc = Snapshot.ancestors t.snaps.(b) v in
    let sset = Ihs.create () in
    List.iter
      (fun (rows, _) ->
        Codec.iter_centers rows (fun tg ->
            Array.iter (Ihs.add sset) (Option.value ~default:[||] (Hashtbl.find_opt t.rev tg))))
      (entries_of t b v);
    Counter.incr (if Ihs.is_empty sset then m_single else m_scatter);
    Ihs.iter
      (fun s ->
        match shard_of t s with
        | Some a -> Ihs.iter (fun w -> Ihs.add acc w) (Snapshot.ancestors t.snaps.(a) s)
        | None -> ())
      sset;
    acc

let engine t =
  {
    Batch.connected = connected t;
    min_distance = min_distance t;
    descendants = descendants t;
    ancestors = ancestors t;
    path_eval = None;
  }
