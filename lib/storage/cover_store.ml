module Cover = Hopi_twohop.Cover
module Codec = Hopi_twohop.Label_codec

type dir = Lin | Lout

(* The four row tables, in heap order: each direction's forward rows
   (a node's label set), then its backward rows (a center's nodes). *)
let forward = function Lin -> 0 | Lout -> 2

let backward = function Lin -> 1 | Lout -> 3

type t = { pgr : Pager.t; rows : Row_table.t; with_dist : bool; n_nodes : int }

let attach pgr ~with_dist rows =
  let n_nodes = ref 0 in
  for i = 0 to Row_table.n_keys rows - 1 do
    if Row_table.registered rows i then incr n_nodes
  done;
  { pgr; rows; with_dist; n_nodes = !n_nodes }

let save t =
  Catalog.write t.pgr { with_dist = t.with_dist; rows = Row_table.layout t.rows };
  Pager.commit t.pgr

let open_pager pgr =
  let { Catalog.with_dist; rows } = Catalog.read pgr in
  attach pgr ~with_dist (Row_table.open_rows pgr rows)

let mem_node t v =
  let i = Row_table.slot t.rows v in
  i >= 0 && Row_table.registered t.rows i

let with_dist t = t.with_dist

let iter_nodes t f =
  for i = 0 to Row_table.n_keys t.rows - 1 do
    if Row_table.registered t.rows i then f (Row_table.key t.rows i)
  done

(* a row decoded in place, through one cursor *)
let scan t table v f =
  let i = Row_table.slot t.rows v in
  if i >= 0 then begin
    let c = Codec.cursor () in
    Row_table.load t.rows c table i;
    while Codec.advance c do
      f (Codec.center c) (Codec.dist c)
    done
  end

let iter_lin t v f = scan t (forward Lin) v (fun center dist -> f ~center ~dist)

let iter_lout t u f = scan t (forward Lout) u (fun center dist -> f ~center ~dist)

(* backward rows name their nodes by slot *)
let iter_in_by_center t w f =
  scan t (backward Lin) w (fun s dist -> f ~node:(Row_table.key t.rows s) ~dist)

let iter_out_by_center t w f =
  scan t (backward Lout) w (fun s dist -> f ~node:(Row_table.key t.rows s) ~dist)

(* {1 Writing a store}

   A frozen cover already holds the store's rows: its keys are the
   directory's (the registered nodes plus any center that is not one),
   its forward rows are each node's entries ascending by center, and its
   backward rows are each center's node slots ascending.  Writing copies
   them through the row codec, so the pages are a function of the cover's
   content and byte-identical for equal covers. *)

let pack_mask = (1 lsl 31) - 1

(* {2 The reachability interval}

   The cover graph has an edge [u -> c] for each [c] in [Lout(u)] and
   [c -> v] for each [c] in [Lin(v)], over directory slots: its closure is
   exactly what the cover answers.  {!Hopi_graph.Closure.intervals} runs
   over it — roots in ascending slot order, successors in row order — and
   numbers each SCC by its emission index [post] and gives it [low], the
   least [post] it reaches.  So [u] reaching [v] implies [post v <= post u]
   and [low u <= low v], whatever the cover. *)

let of_cover pgr cover =
  Catalog.reserve "Cover_store" pgr;
  let { Cover.keys; lin; lout } = Cover.frozen cover in
  let n = Array.length keys in
  List.iter
    (fun d ->
      Array.iter
        (fun x ->
          if x > pack_mask then
            invalid_arg (Printf.sprintf "Cover_store: distance %d out of range" x))
        d)
    [ lin.dist; lout.dist ];
  let w = Row_table.writer pgr ~keys ~registered:(Cover.mem_node cover) in
  let encode ctr dist lo hi =
    let e = Codec.Enc.create () in
    for j = lo to hi - 1 do
      Codec.Enc.row e ~center:ctr.(j) ~dist:(if Array.length dist = 0 then 0 else dist.(j))
    done;
    Codec.Enc.finish e
  in
  List.iter
    (fun (r : Cover.rows) ->
      Row_table.add_table w (fun i -> encode r.ctr r.dist r.off.(i) r.off.(i + 1));
      Row_table.add_table w (fun s -> encode r.by_node r.by_dist r.by_off.(s) r.by_off.(s + 1)))
    [ lin; lout ];
  (* the cover graph's successors of slot [u]: the centers of Lout(u) in
     row order (Lout's backward rows turned around), then the nodes naming
     [u] in their Lin (its Lin backward row) *)
  let succ_off = Array.make (n + 1) 0 in
  Array.iter (fun u -> succ_off.(u + 1) <- succ_off.(u + 1) + 1) lout.by_node;
  for s = 0 to n - 1 do
    succ_off.(s + 1) <- succ_off.(s + 1) + lin.by_off.(s + 1) - lin.by_off.(s) + succ_off.(s)
  done;
  let succ = Array.make succ_off.(n) 0 and fill = Array.sub succ_off 0 n in
  for c = 0 to n - 1 do
    for j = lout.by_off.(c) to lout.by_off.(c + 1) - 1 do
      let u = lout.by_node.(j) in
      succ.(fill.(u)) <- c;
      fill.(u) <- fill.(u) + 1
    done
  done;
  for c = 0 to n - 1 do
    for j = lin.by_off.(c) to lin.by_off.(c + 1) - 1 do
      succ.(fill.(c)) <- lin.by_node.(j);
      fill.(c) <- fill.(c) + 1
    done
  done;
  let post, low = Hopi_graph.Closure.intervals ~off:succ_off ~succ in
  let with_dist = Array.length lin.dist > 0 || Array.length lout.dist > 0 in
  attach pgr ~with_dist (Row_table.finish w ~post ~low)

(* the trivial cover: Lout(v) is every node v reaches but itself, Lin is
   empty *)
let of_closure pgr clo = of_cover pgr (Cover.of_closure clo)

(* {1 Queries}

   Reach, dist, desc and anc are written once, over a [source]: a node
   membership test and a label fetch returning a node's Lin or Lout row.
   The store's own queries read rows straight from the heap; the serving
   layer plugs in a cached fetch. *)

let fetch t dir v =
  let i = Row_table.slot t.rows v in
  if i < 0 then Codec.empty else Row_table.row t.rows (forward dir) i

type source = { store : t; mem : int -> bool; fetch : dir -> int -> Codec.t }

let source t = { store = t; mem = mem_node t; fetch = fetch t }

let m_reach_cut =
  Hopi_obs.Registry.counter "hopi_serve_reach_cut_total"
    ~help:"reach/dist queries answered by the reachability interval, before any label fetch"

(* Does the interval rule out that [u] reaches [v]?  Two directory
   lookups in memory; a "yes" is counted. *)
let cut t u v =
  let rows = t.rows in
  Row_table.rejects rows (Row_table.slot rows u) (Row_table.slot rows v)
  && begin
    Hopi_obs.Counter.incr m_reach_cut;
    true
  end

(* The paper's join on LOUT.OUTID = LIN.INID is a merge of the two
   streams; the two compensating probes cover the implicit self-entries
   (center v in Lout(u), center u in Lin(v)).  A pair the interval
   rejects is answered before either fetch. *)
let reach src u v =
  if u = v then src.mem u
  else if not (src.mem u && src.mem v) || cut src.store u v then false
  else begin
    let lout = src.fetch Lout u and lin = src.fetch Lin v in
    Codec.mem lout v || Codec.mem lin u || Codec.intersects lout lin
  end

let dist src u v =
  if not (src.mem u && src.mem v) then None
  else if u = v then Some 0
  else if cut src.store u v then None
  else begin
    let lout = src.fetch Lout u and lin = src.fetch Lin v in
    let best = ref (-1) in
    let note d = if d >= 0 && (!best < 0 || d < !best) then best := d in
    note (Codec.find_min_dist lout v);
    note (Codec.find_min_dist lin u);
    note (Codec.merge_min lout lin);
    if !best < 0 then None else Some !best
  end

(* the node itself, each center of its labels, and every node naming one
   of those centers on the other side: one backward row per center,
   decoded in place (these enumerate result sets, so the rows go
   uncached).  A per-call mark over directory slots lets each node reach
   [f] once, however many rows name it. *)
let iter_reach src ~dir ~by_center u f =
  if src.mem u then begin
    let rows = src.store.rows in
    let seen = Bytes.make (Row_table.n_keys rows) '\000' in
    let c = Codec.cursor () in
    let yield s = f (Row_table.key rows s) in
    let via_center w =
      let s = Row_table.slot rows w in
      if s < 0 then f w
      else begin
        if Bytes.unsafe_get seen s = '\000' then begin
          Bytes.unsafe_set seen s '\001';
          f w
        end;
        Row_table.load rows c by_center s;
        Codec.iter_unmarked c seen yield
      end
    in
    via_center u;
    Codec.iter_centers (src.fetch dir u) via_center
  end

(* desc: the centers of Lout(u), then the nodes naming each in their Lin *)
let iter_desc src u f = iter_reach src ~dir:Lout ~by_center:(backward Lin) u f

let iter_anc src v f = iter_reach src ~dir:Lin ~by_center:(backward Lout) v f

let connected t u v = reach (source t) u v

let min_distance t u v = dist (source t) u v

let n_entries t = Row_table.entries t.rows (forward Lin) + Row_table.entries t.rows (forward Lout)

let stored_integers t =
  let per_entry = if t.with_dist then 6 else 4 in
  per_entry * n_entries t

let n_nodes t = t.n_nodes

let n_keys t = Row_table.n_keys t.rows

let directory_bytes t = Row_table.dir_bytes t.rows

let table_bytes t =
  [ ("lin", forward Lin); ("lin_by_center", backward Lin); ("lout", forward Lout);
    ("lout_by_center", backward Lout) ]
  |> List.map (fun (name, table) -> (name, Row_table.row_bytes t.rows table))

(* {1 Checking}

   Every row is decoded once: it must decode to the end of its range with
   ascending (center, dist) rows, and each table must hold the entry count
   the catalog records.  Beyond that, every forward center is a directory
   key, a key that is not a registered node has no forward rows, each
   backward table holds exactly its forward table's entries — an
   order-free sum of a mixed hash of every (node, center, dist) on both
   sides — and every forward entry is an edge the intervals contain:
   [(u, c)] in Lout needs [c]'s interval inside [u]'s ([post c <= post u],
   [low u <= low c]), [(v, c)] in Lin needs [v]'s inside [c]'s.  Every
   connected pair is joined by a path of such edges, so the last check
   proves the query-time cut never rejects one. *)

let mix a b d =
  let x = (a * 0x9E3779B97F4A7C1) + (b * 0xBF58476D1CE4E5B) + (d * 0x94D049BB133111E) in
  let x = (x lxor (x lsr 31)) * 0x5DEECE66D in
  x lxor (x lsr 29)

let check t =
  let rows = t.rows in
  let n = Row_table.n_keys rows in
  let key = Row_table.key rows in
  let bad fmt = Printf.ksprintf (fun s -> Storage_error.raise_error (Bad_catalog s)) fmt in
  let c = Codec.cursor () in
  (* [f slot center dist] on every entry of a table *)
  let scan_table table f =
    let count = ref 0 in
    for i = 0 to n - 1 do
      Row_table.load rows c table i;
      let prev_c = ref (-1) and prev_d = ref (-1) in
      match
        while Codec.advance c do
          let ce = Codec.center c and d = Codec.dist c in
          if ce < !prev_c || (ce = !prev_c && d < !prev_d) then
            bad "table %d, key %d: rows do not ascend" table (key i);
          prev_c := ce;
          prev_d := d;
          incr count;
          f i ce d
        done
      with
      | () -> ()
      | exception Invalid_argument _ -> bad "table %d, key %d: truncated row" table (key i)
    done;
    if !count <> Row_table.entries rows table then
      bad "table %d holds %d entries, the catalog says %d" table !count
        (Row_table.entries rows table)
  in
  List.iter
    (fun (fwd, bwd) ->
      let sum_fwd = ref 0 and sum_bwd = ref 0 in
      scan_table fwd (fun i center dist ->
          if not (Row_table.registered rows i) then
            bad "key %d is not a node but has label entries" (key i);
          let s = Row_table.slot rows center in
          if s < 0 then bad "node %d names center %d, which has no row" (key i) center;
          if (if fwd = forward Lout then Row_table.rejects rows i s else Row_table.rejects rows s i)
          then bad "node %d: the interval of center %d does not contain the entry" (key i) center;
          sum_fwd := !sum_fwd + mix (key i) center dist);
      scan_table bwd (fun i s dist ->
          if s >= n then bad "center %d names slot %d of %d" (key i) s n;
          sum_bwd := !sum_bwd + mix (key s) (key i) dist);
      if !sum_fwd <> !sum_bwd then bad "tables %d and %d do not hold the same entries" fwd bwd)
    [ (forward Lin, backward Lin); (forward Lout, backward Lout) ];
  Catalog.cover_tables * n
