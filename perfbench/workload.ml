(* Seeded request streams and the index-free oracle that answers them.

   A request is one frame of [batch] queries.  Every expected reply body
   is computed here by BFS over [Collection.element_graph], never through
   a HOPI index, and rendered exactly as the server renders answers
   ([Hopi_serve.Batch.render]). *)

module Collection = Hopi_collection.Collection
module Digraph = Hopi_graph.Digraph
module Traversal = Hopi_graph.Traversal
module Ihs = Hopi_util.Int_hashset
module Splitmix = Hopi_util.Splitmix
module Batch = Hopi_serve.Batch

(* {1 Oracle} *)

type oracle = {
  g : Digraph.t;
  fwd : (int, Ihs.t) Hashtbl.t;
  bwd : (int, Ihs.t) Hashtbl.t;
}

(* The graph is the collection's live element graph: build a new oracle
   after every mutation of the collection. *)
let oracle c = { g = Collection.element_graph c; fwd = Hashtbl.create 1024; bwd = Hashtbl.create 64 }

let memo tbl f u =
  match Hashtbl.find_opt tbl u with
  | Some s -> s
  | None ->
    let s = f u in
    Hashtbl.replace tbl u s;
    s

let descendants o u = memo o.fwd (fun u -> Traversal.reachable o.g [ u ]) u

let ancestors o u = memo o.bwd (fun u -> Traversal.reachable_backward o.g [ u ]) u

(* Stores built by [hopi build] and [shard-split] without [--dist] hold
   plain covers: a reachable pair reports distance 0. *)
let answer o q =
  let known u = Digraph.mem_node o.g u in
  let reaches u v = known u && known v && (u = v || Ihs.mem (descendants o u) v) in
  match q with
  | Batch.Reach (u, v) -> string_of_bool (reaches u v)
  | Batch.Dist (u, v) -> if reaches u v then "0" else "unreachable"
  | Batch.Desc u -> string_of_int (if known u then Ihs.cardinal (descendants o u) else 0)
  | Batch.Anc u -> string_of_int (if known u then Ihs.cardinal (ancestors o u) else 0)
  | Batch.Path _ -> invalid_arg "oracle: path queries are not part of the benchmark"

(* {1 Request streams} *)

type frame = {
  queries : Batch.query array;
  payload : string;  (** the request frame body: one query per line *)
}

let line = Format.asprintf "%a" Batch.pp_query

let frame_of queries =
  { queries; payload = String.concat "\n" (Array.to_list (Array.map line queries)) }

let expected o f = String.concat "\n" (Array.to_list (Array.map (answer o) f.queries))

(* The popularity order of the nodes.  Callers shuffle with the corpus
   seed, not the run seed: under Zipf the hottest few nodes take a tenth of
   the probes each, and their label sizes alone moved hot throughput by
   1.4x between seeds. *)
let shuffled_nodes ~seed nodes =
  let a = Array.of_list (List.sort compare nodes) in
  Splitmix.shuffle (Splitmix.create seed) a;
  a

type mix =
  | Hot  (** Zipf reach/dist pairs *)
  | Cold  (** uniform reach/dist pairs plus 10% desc/anc *)

(* A desc/anc query costs about forty reach probes on a cold store, so
   cold frames carry exactly one desc and one anc per 20 queries: a
   frame's cost then varies with its nodes, not with how many enumerations
   a coin flip put into it. *)
let frames ~mix ~seed ~nodes ~batch ~n_frames =
  let n = batch * n_frames in
  let rng = Splitmix.create (seed + 17) in
  let pairs =
    match mix with
    | Hot -> Hopi_workload.Query_gen.zipf_pairs ~theta:1.1 ~seed ~nodes ~n
    | Cold -> Hopi_workload.Query_gen.uniform_pairs ~seed ~nodes ~n
  in
  let query k (u, v) =
    match mix with
    | Cold when k mod 20 = 0 -> Batch.Desc u
    | Cold when k mod 20 = 10 -> Batch.Anc v
    | _ -> if Splitmix.bool rng then Batch.Reach (u, v) else Batch.Dist (u, v)
  in
  Array.init n_frames (fun i ->
      let qs = Array.init batch (fun j -> query j pairs.((i * batch) + j)) in
      if mix = Cold then Splitmix.shuffle rng qs;
      frame_of qs)

(* {1 Prepared requests} *)

(* What [pb prepare] writes for the other subcommands: the frames, the
   expected reply bodies per generation (one generation unless live), and
   the maintenance groups of the live plan. *)
type prepared = {
  mix : string;
  frames : frame array;
  expected : string array array;
  groups : string array array;
  links : string array array;
}

let load_prepared path : prepared =
  let ic = open_in_bin path in
  let p = Marshal.from_channel ic in
  close_in ic;
  p
