(* K-shard split + scatter-gather routing (contract in the interface).

   Correctness rests on the paper's path decomposition: any path between
   elements of different partitions factors at its cross-partition link
   edges into within-partition segments glued by links.  Routing therefore
   needs exactly (a) per-shard covers for the within-partition segments
   and (b) the transitive closure of the PSG — whose nodes are the
   cross-link endpoints, whose link edges are the cross links themselves,
   and whose within edges connect a link target to every link source it
   reaches inside its own partition.  The shards' labels give every
   within edge, so the routing index stores only the links, and the PSG,
   its closure and the per-center rows are derived at open by the stages
   the PSG join runs.  A query crossing shards resolves as

     u ==within==> s  --PSG closure-->  t  ==within==> v

   and both within segments are 2-hop label merges, so the whole path is
   a second-level 2-hop merge whose centers are shard-cover centers: the
   row stage ({!Psg.routes}) gives [exit c], the closure rows of every
   source naming [c] (in [Lin(s)] or as [s]), and [entry c'], every target
   naming [c'] (in [Lout(t)] or as [t]); [u ⇝ v] crosses iff some
   [c ∈ Lout(u) ∪ {u}] and [c' ∈ Lin(v) ∪ {v}] have a target in common.
   The join flattens the same rows into each node's labels; the router
   keeps them per center.  The closure is multi-hop, so paths that
   traverse — or re-enter — any number of shards are covered. *)

module Collection = Hopi_collection.Collection
module Partitioning = Hopi_collection.Partitioning
module Psg = Hopi_collection.Psg
module Digraph = Hopi_graph.Digraph
module Closure = Hopi_graph.Closure
module Builder = Hopi_twohop.Builder
module Dist_builder = Hopi_twohop.Dist_builder
module S = Hopi_storage
module Ihs = Hopi_util.Int_hashset
module Bitrow = Hopi_util.Bitrow
module Codec = Hopi_twohop.Label_codec
module Cover = Hopi_twohop.Cover
module Registry = Hopi_obs.Registry
module Counter = Hopi_obs.Counter
module Gauge = Hopi_obs.Gauge
module Trace = Hopi_obs.Trace

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
  entries : int;
}

(* Shard stores of generation [gen]: [shard-NNN.db] for a first split,
   [shard-NNN.db.gen<G>] for the G-th re-split of a directory. *)
let shard_path ~dir ~gen k =
  S.Manifest.gen_path ~base:(Filename.concat dir (Printf.sprintf "shard-%03d.db" k)) gen

let routing_path ~dir = Filename.concat dir "routing.idx"

(* The generation a shard store's published name carries; [None] for any
   other name, a temporary file included. *)
let shard_gen name =
  match Scanf.sscanf_opt name "shard-%_u.db%!" () with
  | Some () -> Some 0
  | None -> Scanf.sscanf_opt name "shard-%_u.db.gen%u%!" Fun.id

(* routing.idx is a page file whose payloads, read in page order, form one
   byte stream: seven 32-bit words — magic, version, generation, shard
   count, dist flag, link count, link-stream bytes — then the sorted cross
   links as one Label_codec stream of (source, target) rows. *)
let magic = 0x48525449 (* "HRTI" *)

let version = 1

let header_bytes = 28

let page_bytes = S.Page.size - S.Page.payload_off

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

let write_routing ~vfs ~fsync path ~gen ~k ~dist links =
  let stream = Codec.encode_pairs (Array.of_list links) in
  let body = Bytes.make (header_bytes + Bytes.length stream) '\000' in
  List.iteri
    (fun i w -> S.Page.set_i32 body (4 * i) w)
    [ magic; version; gen; k; Bool.to_int dist; List.length links; Bytes.length stream ];
  Bytes.blit stream 0 body header_bytes (Bytes.length stream);
  let pager = S.Pager.create_vfs ~fsync ~vfs path in
  let rec pages off =
    if off < Bytes.length body then begin
      let page = S.Page.create () and n = min page_bytes (Bytes.length body - off) in
      Bytes.blit body off page S.Page.payload_off n;
      S.Pager.write pager (S.Pager.alloc pager) page;
      pages (off + n)
    end
  in
  pages 0;
  S.Pager.close pager

let split ?(vfs = S.Vfs.real) ?(dist = false) ?(fsync = true) ~k ~dir c =
  if k < 1 then invalid_arg "Router.split: k < 1";
  let k = max 1 (min k (max 1 (Collection.n_docs c))) in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  (* one past every generation the directory holds, 0 for a first split *)
  let gen =
    1 + List.fold_left (fun g name -> max g (Option.value ~default:(-1) (shard_gen name)))
          (-1) (vfs.S.Vfs.list_dir dir)
  in
  let part = Partitioning.make c ~part_of_doc:(assign_docs c k) ~n:k in
  (* per shard: the within-partition cover, persisted *)
  let entries = ref 0 in
  for p = 0 to k - 1 do
    let sub = Partitioning.element_subgraph part c p in
    let pager = S.Pager.create_vfs ~fsync ~vfs (shard_path ~dir ~gen p) in
    let cover =
      if dist then fst (Dist_builder.build sub) else fst (Builder.build (Closure.compute sub))
    in
    let store = S.Cover_store.of_cover pager cover in
    S.Cover_store.save store;
    entries := !entries + S.Cover_store.n_entries store;
    S.Pager.close pager
  done;
  (* the routing index names generation [gen]: its rename commits the split *)
  let links = List.sort compare part.Partitioning.cross_links in
  write_routing ~vfs ~fsync (routing_path ~dir) ~gen ~k ~dist links;
  (* then the other generations' shard stores and their temporary
     leftovers go; any other file stays *)
  let live = List.init k (fun p -> Filename.basename (shard_path ~dir ~gen p)) in
  let stale name =
    let store = Option.value ~default:name (Filename.chop_suffix_opt ~suffix:(S.Vfs.tmp_path "") name) in
    shard_gen store <> None && not (List.mem name live)
  in
  List.iter
    (fun name -> if stale name then vfs.S.Vfs.remove (Filename.concat dir name))
    (vfs.S.Vfs.list_dir dir);
  {
    shards = k;
    elements = Collection.n_elements c;
    cross_links = List.length links;
    entries = !entries;
  }

(* {1 Loading} *)

(* The PSG's closure over dense numbers: link sources and link targets,
   each ascending.  [rows] holds per source the targets it reaches, at
   their distances on distance-aware shards (no distances on plain ones,
   where every distance is 0); target [j]'s reaching sources are
   [rev_s.(rev_off.(j))] .. [rev_s.(rev_off.(j + 1) - 1)], as ids. *)
type closure = { rows : Psg.rows; rev_off : int array; rev_s : int array }

type t = {
  k : int;
  with_dist : bool;
  snaps : Snapshot.t array;
  elem_shard : (int, int) Hashtbl.t;
  has_targets : bool array;  (* per shard: does a cross link land in it? *)
  exits : (int, Codec.t) Hashtbl.t;  (* center c -> rows (t, d(c ~> t)) *)
  entries_at : (int, Codec.t) Hashtbl.t;  (* center c' -> rows (t, d(t ~> c')) *)
  targets : int array;  (* link targets ascending: the closure's target numbers *)
  rev_off : int array;
  rev_s : int array;
  entries : int;
}

let bad_index path msg = raise (Sys_error (Printf.sprintf "%s: bad routing index: %s" path msg))

(* [f center d] once per distinct center of a label set, at the run's
   least distance (the first row of each run) *)
let iter_runs enc f =
  let last = ref (-1) in
  Codec.iter enc (fun ~center ~dist ->
      if center <> !last then begin
        last := center;
        f center dist
      end)

(* The second-level 2-hop tables: the PSG join's row stage
   ({!Psg.routes}) over the shards' labels, fetched through the shared
   label cache, with the closure's rows as they are (a source on a PSG
   cycle keeps itself).  Each row is encoded as one label set of (link
   target, distance) rows: [exit(c)] at the least [din(c, s) + d(s, t)],
   [entry(c')] at [dout(t, c')].  Both are set as gauges. *)
let routing_rows label targets clo =
  let exits, entries =
    Psg.routes ~targets ~lin:(label S.Cover_store.Lin) ~lout:(label S.Cover_store.Lout) clo.rows
  in
  let rows = ref 0 and bytes = ref 0 in
  let table (r : Psg.rows) =
    let tbl = Hashtbl.create (Array.length r.Psg.keys) in
    Array.iteri
      (fun i c ->
        let enc = Codec.Enc.create () and k = ref 0 in
        Bitrow.iter ~lo:r.Psg.lo.(i) r.Psg.bits.(i) (fun j ->
            let dist = if Array.length r.Psg.dist = 0 then 0 else r.Psg.dist.(i).(!k) in
            Codec.Enc.row enc ~center:targets.(j) ~dist;
            incr k);
        let enc = Codec.Enc.finish enc in
        rows := !rows + Codec.n_rows enc;
        bytes := !bytes + Codec.size_bytes enc;
        Hashtbl.replace tbl c enc)
      r.Psg.keys;
    tbl
  in
  let exits = table exits and entries_at = table entries in
  Gauge.set g_rows !rows;
  Gauge.set g_bytes !bytes;
  (exits, entries_at)

(* The element map: every node a shard registers, in exactly one shard. *)
let element_map path snaps =
  let n = Array.fold_left (fun acc s -> acc + Snapshot.n_nodes s) 0 snaps in
  let elem_shard = Hashtbl.create (max 16 n) in
  Array.iteri
    (fun p snap ->
      Snapshot.iter_nodes snap (fun e ->
          match Hashtbl.find_opt elem_shard e with
          | Some q -> bad_index path (Printf.sprintf "element %d is registered in shards %d and %d" e q p)
          | None -> Hashtbl.replace elem_shard e p))
    snaps;
  elem_shard

(* Shortest paths over the PSG of distance-aware shards.  The PSG is
   built once in CSR form with integer weights: a link 1, a within edge
   its shard's stored distance (-1, absent, for one with none).  The
   answer [search s ~want f] runs Dial's bucket queue from link source
   [s], starting at its out-edges so a cycle back to [s] is found at its
   real positive distance.  Every weight is at most [nb - 1], so while
   bucket [d mod nb] is drained every queued distance lies in
   [[d, d + nb - 1]] and the [nb] circular buckets hold them apart; a
   popped node whose distance is no longer [d] is stale and skipped.  The
   search stops once [want] link targets are settled; [f] then reads the
   distance of each target number ([max_int]: not reached), and the
   scratch is reset for the next search. *)
let dial_search snaps shard g targets =
  let ids, off, adj = Digraph.csr g ~pred:false in
  let n = Array.length ids in
  let number = Hashtbl.create n in
  Array.iteri (fun x v -> Hashtbl.replace number v x) ids;
  let w = Array.make (Array.length adj) (-1) in
  for x = 0 to n - 1 do
    let u = ids.(x) in
    for e = off.(x) to off.(x + 1) - 1 do
      let v = ids.(adj.(e)) in
      if shard u <> shard v then w.(e) <- 1
      else Option.iter (fun d -> w.(e) <- d) (Snapshot.min_distance snaps.(shard u) u v)
    done
  done;
  let target_at = Array.map (Hashtbl.find number) targets in
  let is_target = Array.make n false in
  Array.iter (fun x -> is_target.(x) <- true) target_at;
  let nb = Array.fold_left max 0 w + 1 in
  (* per bucket its last queued entry (-1: empty); per entry its node and
     the entry queued before it.  A search settles each node once and
     relaxes its out-edges then, and [s]'s also at the start: at most
     twice the edges are queued. *)
  let head = Array.make nb (-1) in
  let node = Array.make ((2 * Array.length adj) + 1) 0 in
  let next = Array.make (Array.length node) 0 in
  let dist = Array.make n max_int and seen = Array.make n 0 in
  fun s ~want f ->
    let queued = ref 0 and pending = ref 0 and n_seen = ref 0 in
    let relax x d =
      for e = off.(x) to off.(x + 1) - 1 do
        let y = adj.(e) and dy = d + w.(e) in
        if w.(e) >= 0 && dy < dist.(y) then begin
          if dist.(y) = max_int then begin
            seen.(!n_seen) <- y;
            incr n_seen
          end;
          dist.(y) <- dy;
          let b = dy mod nb in
          node.(!queued) <- y;
          next.(!queued) <- head.(b);
          head.(b) <- !queued;
          incr queued;
          incr pending
        end
      done
    in
    relax (Hashtbl.find number s) 0;
    let d = ref 0 and left = ref want in
    while !pending > 0 && !left > 0 do
      let b = !d mod nb in
      let q = head.(b) in
      if q < 0 then incr d
      else begin
        head.(b) <- next.(q);
        decr pending;
        let y = node.(q) in
        if dist.(y) = !d then begin
          if is_target.(y) then decr left;
          relax y !d
        end
      end
    done;
    f (fun j -> dist.(target_at.(j)));
    for i = 0 to !n_seen - 1 do
      dist.(seen.(i)) <- max_int
    done;
    Array.fill head 0 nb (-1)

(* The PSG's closure from one kernel pass ({!Closure.succs_among}, the
   PSG join's): per link source the link targets it reaches over at least
   one PSG edge, and per target the sources reaching it.  A source that
   is also a target so keeps itself only when a PSG cycle leads back to
   it.  Plain shards route reachability only, so every distance is 0;
   distance-aware ones read each source's distances off one
   {!dial_search}, stopped once every target of the source's row is
   settled. *)
let psg_closure ~with_dist snaps shard (psg : Psg.t) =
  let g = psg.Psg.graph and sources = psg.Psg.sources and targets = psg.Psg.targets in
  let reached = Closure.succs_among g ~from:sources ~among:targets in
  let dist = Array.make (if with_dist then Array.length sources else 0) [||] in
  if with_dist then begin
    let search = dial_search snaps shard g targets in
    Array.iteri
      (fun i s ->
        (* a target no search reaches goes (an edge with no stored distance) *)
        search s ~want:(Array.length reached.(i)) (fun d ->
            reached.(i) <- Array.of_seq (Seq.filter (fun j -> d j < max_int) (Array.to_seq reached.(i)));
            dist.(i) <- Array.map d reached.(i)))
      sources
  end;
  let rev_off = Array.make (Array.length targets + 1) 0 in
  Array.iter (Array.iter (fun j -> rev_off.(j + 1) <- rev_off.(j + 1) + 1)) reached;
  for j = 1 to Array.length targets do
    rev_off.(j) <- rev_off.(j) + rev_off.(j - 1)
  done;
  let fill = Array.copy rev_off and rev_s = Array.make rev_off.(Array.length targets) 0 in
  Array.iteri
    (fun i r ->
      Array.iter
        (fun j ->
          rev_s.(fill.(j)) <- sources.(i);
          fill.(j) <- fill.(j) + 1)
        r)
    reached;
  { rows = Psg.of_sets ~keys:sources ~dist reached; rev_off; rev_s }

type routing = { gen : int; n_shards : int; dist : bool; links : (int * int) list }

(* the header words and the link stream, checked against each other; no
   shard is opened *)
let read_routing ?(vfs = S.Vfs.real) path =
  let pager = S.Pager.open_existing ~pool_pages:4 ~vfs path in
  Fun.protect ~finally:(fun () -> S.Pager.close pager) @@ fun () ->
  let n = S.Pager.n_pages pager in
  if n = 0 then S.Storage_error.raise_error (Truncated (path ^ ": routing index has no page"));
  let body = Bytes.create (n * page_bytes) in
  for p = 0 to n - 1 do
    Bytes.blit (S.Pager.read pager p) S.Page.payload_off body (p * page_bytes) page_bytes
  done;
  let word i = S.Page.get_i32 body (4 * i) in
  if word 0 <> magic then S.Storage_error.raise_error (Bad_magic { got = word 0; expected = magic });
  if word 1 <> version then
    S.Storage_error.raise_error (Bad_version { got = word 1; expected = version });
  let bad msg = S.Storage_error.raise_error (Bad_catalog (path ^ ": routing index " ^ msg)) in
  let gen = word 2 and n_shards = word 3 and dist = word 4 and n_links = word 5 and len = word 6 in
  if gen < 0 || n_shards < 1 || (dist <> 0 && dist <> 1) || n_links < 0 || len < 0 then
    bad "header out of range";
  if (header_bytes + len + page_bytes - 1) / page_bytes <> n then
    bad (Printf.sprintf "link stream of %d bytes on %d pages" len n);
  let cur = Codec.cursor () and links = ref [] in
  Codec.reset cur body ~pos:header_bytes ~len;
  (try
     while Codec.advance cur do
       let l = (Codec.center cur, Codec.dist cur) in
       (match !links with prev :: _ when compare prev l > 0 -> bad "links out of order" | _ -> ());
       links := l :: !links
     done
   with Invalid_argument _ -> bad "link stream truncated");
  if List.length !links <> n_links then
    bad (Printf.sprintf "holds %d links, its header says %d" (List.length !links) n_links);
  { gen; n_shards; dist = dist = 1; links = List.rev !links }

let open_dir ?(vfs = S.Vfs.real) ?(pool_pages = 4096) ?(cache_mb = 64) dir =
  let path = routing_path ~dir in
  let { gen; n_shards = k; dist = with_dist; links } = read_routing ~vfs path in
  (* one shared page pool and label cache across all shard snapshots *)
  let pool = S.Pager.Read_pool.create ~pages:pool_pages () in
  let cache = Label_cache.create ~capacity_bytes:(cache_mb * 1024 * 1024) () in
  let opened = ref [] in
  (* a bad shard or routing index must not leak the shards already open *)
  let closing f =
    try f ()
    with e ->
      List.iter Snapshot.close !opened;
      raise e
  in
  let snaps =
    closing (fun () ->
        Array.init k (fun p ->
            let s = Snapshot.open_file ~pool ~vfs ~cache (shard_path ~dir ~gen p) in
            opened := s :: !opened;
            s))
  in
  closing @@ fun () ->
  let elem_shard = element_map path snaps in
  let shard e =
    match Hashtbl.find_opt elem_shard e with
    | Some p -> p
    | None -> bad_index path (Printf.sprintf "link endpoint %d is in no shard" e)
  in
  let has_targets = Array.make k false in
  List.iter
    (fun (u, v) ->
      let a = shard u and b = shard v in
      if a = b then bad_index path (Printf.sprintf "link %d -> %d stays inside shard %d" u v a);
      has_targets.(b) <- true)
    links;
  let label dir v = iter_runs (Snapshot.label snaps.(shard v) dir v) in
  let psg =
    Trace.with_span "router.open.psg" (fun () ->
        Psg.build ~links ~lin:(label S.Cover_store.Lin) ~lout:(label S.Cover_store.Lout))
  in
  (* link targets ascending: the dense key of the closure rows *)
  let targets = psg.Psg.targets in
  let clo = Trace.with_span "router.open.closure" (fun () -> psg_closure ~with_dist snaps shard psg) in
  let exits, entries_at =
    Trace.with_span "router.open.rows" (fun () -> routing_rows label targets clo)
  in
  let entries = Array.fold_left (fun acc s -> acc + Snapshot.n_entries s) 0 snaps in
  {
    k;
    with_dist;
    snaps;
    elem_shard;
    has_targets;
    exits;
    entries_at;
    targets;
    rev_off = clo.rev_off;
    rev_s = clo.rev_s;
    entries;
  }

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

(* the cross-shard unions: the home shard's set plus every shard
   reached through a cross link, streamed into one set *)
let descendants t ?f u =
  let acc = Ihs.create () in
  (match shard_of t u with
  | None -> Counter.incr m_single
  | Some a ->
    Snapshot.iter_desc t.snaps.(a) u (Ihs.add acc);
    let tset = Ihs.create () in
    List.iter (fun (rows, _) -> Codec.iter_centers rows (Ihs.add tset)) (exits_of t a u);
    Counter.incr (if Ihs.is_empty tset then m_single else m_scatter);
    Ihs.iter
      (fun tg ->
        match shard_of t tg with
        | Some b -> Snapshot.iter_desc t.snaps.(b) tg (Ihs.add acc)
        | None -> ())
      tset);
  Option.iter (fun f -> Ihs.iter f acc) f;
  Ihs.cardinal acc

let ancestors t ?f v =
  let acc = Ihs.create () in
  (match shard_of t v with
  | None -> Counter.incr m_single
  | Some b ->
    Snapshot.iter_anc t.snaps.(b) v (Ihs.add acc);
    let sset = Ihs.create () in
    List.iter
      (fun (rows, _) ->
        Codec.iter_centers rows (fun tg ->
            let j = Cover.slot t.targets tg in
            for e = t.rev_off.(j) to t.rev_off.(j + 1) - 1 do
              Ihs.add sset t.rev_s.(e)
            done))
      (entries_of t b v);
    Counter.incr (if Ihs.is_empty sset then m_single else m_scatter);
    Ihs.iter
      (fun s ->
        match shard_of t s with
        | Some a -> Snapshot.iter_anc t.snaps.(a) s (Ihs.add acc)
        | None -> ())
      sset);
  Option.iter (fun f -> Ihs.iter f acc) f;
  Ihs.cardinal acc

let engine t =
  {
    Batch.connected = connected t;
    min_distance = min_distance t;
    descendants = descendants t;
    ancestors = ancestors t;
    path_eval = None;
  }
