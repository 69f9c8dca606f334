module Bitrow = Hopi_util.Bitrow
module Stats = Hopi_util.Stats
module Splitmix = Hopi_util.Splitmix
module Closure = Hopi_graph.Closure
module Digraph = Hopi_graph.Digraph
module Trace = Hopi_obs.Trace

type stats = {
  iterations : int;
  recomputations : int;
  reinserts : int;
  sampled_nodes : int;
}

let max_samples = 13_600

(* [rows.(x)] holds local number [x]'s BFS distance to local number
   [base.(x) + i] at [i], [-1] where unreached; it spans the words of [x]'s
   closure row, so it holds every number [x] reaches. *)
type dists = { base : int array; rows : int array array }

let d ds x y =
  let r = ds.rows.(x) and i = y - ds.base.(x) in
  if i >= 0 && i < Array.length r then r.(i) else -1

(* Is w on a shortest path from u to v? *)
let on_shortest ds u w v =
  let a = d ds u w and b = d ds w v in
  a >= 0 && b >= 0 && a + b = d ds u v

let dist ds x y =
  let n = d ds x y in
  assert (n >= 0);
  n

(* one BFS per node over the graph's CSR, into its local number's row *)
let distance_rows g clo =
  let ids, off, adj = Digraph.csr g ~pred:false in
  let n = Array.length ids in
  let local = Array.map (Closure.number clo) ids in
  let base = Array.init n (fun x -> Closure.reach_lo clo x * Bitrow.bits) in
  let rows = Array.make n [||] and queue = Array.make n 0 in
  for s = 0 to n - 1 do
    let x = local.(s) in
    let b = base.(x) in
    let r = Array.make (Array.length (Closure.reach_row clo x) * Bitrow.bits) (-1) in
    r.(x - b) <- 0;
    queue.(0) <- s;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let i = queue.(!head) in
      incr head;
      let next = r.(local.(i) - b) + 1 in
      for e = off.(i) to off.(i + 1) - 1 do
        let j = adj.(e) in
        if r.(local.(j) - b) < 0 then begin
          r.(local.(j) - b) <- next;
          queue.(!tail) <- j;
          incr tail
        end
      done
    done;
    rows.(x) <- r
  done;
  { base; rows }

let to_array iter =
  let l = ref [] in
  iter (fun x -> l := x :: !l);
  Array.of_list (List.rev !l)

(* Upper-bound estimate √E/2 for the maximal density of a center graph with
   E edges; E is counted exactly or sampled with a 98% CI upper bound. *)
let initial_priority rng ~exact_threshold clo ds sampled w =
  let cin = to_array (Closure.iter_ancestors clo w) in
  let cout = to_array (Bitrow.iter ~lo:(Closure.reach_lo clo w) (Closure.reach_row clo w)) in
  let a = Array.length cin and b = Array.length cout in
  let candidates = a * b in
  if candidates = 0 then 0.0
  else if candidates <= exact_threshold then begin
    let e = ref 0 in
    Array.iter
      (fun u -> Array.iter (fun v -> if u <> v && on_shortest ds u w v then incr e) cout)
      cin;
    sqrt (float_of_int !e) /. 2.0
  end
  else begin
    incr sampled;
    let n = min max_samples candidates in
    let hits = ref 0 in
    for _ = 1 to n do
      let u = cin.(Splitmix.int rng a) and v = cout.(Splitmix.int rng b) in
      if u <> v && on_shortest ds u w v then incr hits
    done;
    let frac = Stats.proportion_ci_upper ~successes:!hits ~samples:n ~z:Stats.z_98 in
    sqrt (frac *. float_of_int candidates) /. 2.0
  end

(* [w]'s center graph: the plain one's edges that have [w] on a shortest
   path *)
let fill (ctx : Builder.ctx) ds w =
  let lo = Closure.reach_lo ctx.clo w and r = Closure.reach_row ctx.clo w in
  Uncovered.iter_live_ins ctx.uncov w (fun u ->
      Densest.add_left ctx.graph u;
      Uncovered.iter_into ctx.uncov u ~lo r (fun v ->
          if on_shortest ds u w v then Densest.add_edge ctx.graph v))

let apply_choice (ctx : Builder.ctx) ds w (r : Densest.result) =
  let id = Closure.id ctx.clo in
  Array.iter
    (fun u ->
      Cover.add_out ctx.cover ~node:(id u) ~center:(id w) ~dist:(dist ds u w);
      Array.iter
        (fun v ->
          if Uncovered.mem ctx.uncov u v && on_shortest ds u w v then Uncovered.remove ctx.uncov u v)
        r.Densest.c_out)
    r.Densest.c_in;
  Array.iter
    (fun v -> Cover.add_in ctx.cover ~node:(id v) ~center:(id w) ~dist:(dist ds w v))
    r.Densest.c_out

let build ?(seed = 42) ?(exact_threshold = max_samples) g =
  let clo, ds =
    Trace.with_span "dist.apsp" (fun () ->
        let clo = Closure.compute g in
        (clo, distance_rows g clo))
  in
  let ctx = Builder.context clo (Uncovered.of_closure clo) in
  let rng = Splitmix.create seed and sampled = ref 0 in
  let prio =
    Trace.with_span "dist.densities" (fun () ->
        Array.init (Closure.n_nodes clo) (initial_priority rng ~exact_threshold clo ds sampled))
  in
  let cover, st =
    Trace.with_span "dist.greedy" (fun () ->
        Builder.greedy ctx ~prio:(Array.get prio) ~fill:(fill ctx ds) ~apply:(apply_choice ctx ds))
  in
  ( cover,
    {
      iterations = st.Builder.iterations;
      recomputations = st.Builder.recomputations;
      reinserts = st.Builder.reinserts;
      sampled_nodes = !sampled;
    } )
