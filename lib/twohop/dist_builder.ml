module Heap = Hopi_util.Heap
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

(* Everything on the closure's local numbers, as in [Builder].  [rows.(x)]
   holds [x]'s BFS distance to local number [base.(x) + i] at [i], [-1]
   where unreached; it spans the words of [x]'s closure row, so it holds
   every number [x] reaches. *)
type ctx = {
  base : int array;
  rows : int array array;
  clo : Closure.t;
  cover : Cover.t;
  uncov : Uncovered.t;
  graph : Densest.t;
}

let d ctx x y =
  let r = ctx.rows.(x) and i = y - ctx.base.(x) in
  if i >= 0 && i < Array.length r then r.(i) else -1

(* Is w on a shortest path from u to v? *)
let on_shortest ctx u w v =
  let a = d ctx u w and b = d ctx w v in
  a >= 0 && b >= 0 && a + b = d ctx u v

let dist ctx x y =
  let n = d ctx x y in
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
  (base, rows)

let to_array iter =
  let l = ref [] in
  iter (fun x -> l := x :: !l);
  Array.of_list (List.rev !l)

(* Upper-bound estimate √E/2 for the maximal density of a center graph with
   E edges; E is counted exactly or sampled with a 98% CI upper bound. *)
let initial_priority rng ~exact_threshold ctx sampled w =
  let cin = to_array (Closure.iter_ancestors ctx.clo w) in
  let cout = to_array (Bitrow.iter ~lo:(Closure.reach_lo ctx.clo w) (Closure.reach_row ctx.clo w)) in
  let a = Array.length cin and b = Array.length cout in
  let candidates = a * b in
  if candidates = 0 then 0.0
  else if candidates <= exact_threshold then begin
    let e = ref 0 in
    Array.iter
      (fun u -> Array.iter (fun v -> if u <> v && on_shortest ctx u w v then incr e) cout)
      cin;
    sqrt (float_of_int !e) /. 2.0
  end
  else begin
    incr sampled;
    let n = min max_samples candidates in
    let hits = ref 0 in
    for _ = 1 to n do
      let u = cin.(Splitmix.int rng a) and v = cout.(Splitmix.int rng b) in
      if u <> v && on_shortest ctx u w v then incr hits
    done;
    let frac = Stats.proportion_ci_upper ~successes:!hits ~samples:n ~z:Stats.z_98 in
    sqrt (frac *. float_of_int candidates) /. 2.0
  end

let densest_for ctx w =
  let lo = Closure.reach_lo ctx.clo w and r = Closure.reach_row ctx.clo w in
  Densest.start ctx.graph;
  Uncovered.iter_live_ins ctx.uncov w (fun u ->
      Densest.add_left ctx.graph u;
      Uncovered.iter_into ctx.uncov u ~lo r (fun v ->
          if on_shortest ctx u w v then Densest.add_edge ctx.graph v));
  Densest.run ctx.graph

let apply_choice ctx w (r : Densest.result) =
  let id = Closure.id ctx.clo in
  Array.iter
    (fun u ->
      Cover.add_out ctx.cover ~node:(id u) ~center:(id w) ~dist:(dist ctx u w);
      Array.iter
        (fun v ->
          if Uncovered.mem ctx.uncov u v && on_shortest ctx u w v then Uncovered.remove ctx.uncov u v)
        r.Densest.c_out)
    r.Densest.c_in;
  Array.iter
    (fun v -> Cover.add_in ctx.cover ~node:(id v) ~center:(id w) ~dist:(dist ctx w v))
    r.Densest.c_out

let build ?(seed = 42) ?(exact_threshold = max_samples) g =
  let clo, (base, rows) =
    Trace.with_span "dist.apsp" (fun () ->
        let clo = Closure.compute g in
        (clo, distance_rows g clo))
  in
  let n = Closure.n_nodes clo in
  let rng = Splitmix.create seed in
  let cover = Cover.create ~initial:n () in
  Closure.iter_nodes clo (fun v -> Cover.add_node cover v);
  let ctx =
    {
      base;
      rows;
      clo;
      cover;
      uncov = Uncovered.of_closure clo;
      graph = Densest.create ();
    }
  in
  let uncov = ctx.uncov in
  let iterations = ref 0 and recomputations = ref 0 and reinserts = ref 0 in
  let sampled = ref 0 in
  let queue = Heap.create () in
  Trace.with_span "dist.densities" (fun () ->
      for w = 0 to n - 1 do
        let p = initial_priority rng ~exact_threshold ctx sampled w in
        if p > 0.0 then Heap.push queue ~prio:p ~rank:w w
      done);
  Trace.with_span "dist.greedy" @@ fun () ->
  while not (Uncovered.is_empty uncov) do
    match Heap.pop_max queue with
    | None -> (
      (* exhausted estimates (possible when all initial priorities were 0 for
         isolated nodes): cover any leftover pair directly *)
      match Uncovered.choose uncov with
      | Some (u, v) ->
        Cover.add_out cover ~node:(Closure.id clo u) ~center:(Closure.id clo v) ~dist:(dist ctx u v);
        Uncovered.remove uncov u v
      | None -> ())
    | Some (_, w) -> (
      incr recomputations;
      match densest_for ctx w with
      | None -> ()
      | Some r ->
        let next_best =
          match Heap.peek_max queue with
          | Some (p, _) -> p
          | None -> neg_infinity
        in
        if r.Densest.density >= next_best then begin
          apply_choice ctx w r;
          incr iterations
        end
        else incr reinserts;
        Heap.push queue ~prio:r.Densest.density ~rank:w w)
  done;
  Cover.compact cover;
  ( cover,
    {
      iterations = !iterations;
      recomputations = !recomputations;
      reinserts = !reinserts;
      sampled_nodes = !sampled;
    } )
