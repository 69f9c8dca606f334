module Int_set = Hopi_util.Int_set
module Ihs = Hopi_util.Int_hashset
module Heap = Hopi_util.Heap
module Stats = Hopi_util.Stats
module Splitmix = Hopi_util.Splitmix
module Digraph = Hopi_graph.Digraph
module Shortest = Hopi_graph.Shortest
module Trace = Hopi_obs.Trace

type stats = {
  iterations : int;
  recomputations : int;
  reinserts : int;
  sampled_nodes : int;
}

let max_samples = 13_600

type ctx = {
  apsp : Shortest.t;
  succs : (int, Int_set.t) Hashtbl.t;  (* descendants incl self *)
  preds : (int, Int_set.t) Hashtbl.t;  (* ancestors incl self *)
}

let make_ctx g =
  let apsp = Shortest.all_pairs g in
  let succs = Hashtbl.create (Digraph.n_nodes g) in
  let preds_acc = Hashtbl.create (Digraph.n_nodes g) in
  Digraph.iter_nodes g (fun v -> Hashtbl.replace preds_acc v (ref []));
  Digraph.iter_nodes g (fun u ->
      let vs = ref [] in
      Shortest.iter_from apsp u (fun v _ ->
          vs := v :: !vs;
          let r = Hashtbl.find preds_acc v in
          r := u :: !r);
      Hashtbl.replace succs u (Int_set.of_list !vs));
  let preds = Hashtbl.create (Digraph.n_nodes g) in
  Hashtbl.iter (fun v r -> Hashtbl.replace preds v (Int_set.of_list !r)) preds_acc;
  { apsp; succs; preds }

let d ctx u v = Shortest.dist ctx.apsp u v

(* Is w on a shortest path from u to v? *)
let on_shortest ctx u w v =
  match (d ctx u w, d ctx w v, d ctx u v) with
  | Some a, Some b, Some c -> a + b = c
  | _ -> false

(* Upper-bound estimate √E/2 for the maximal density of a center graph with
   E edges; E is counted exactly or sampled with a 98% CI upper bound. *)
let initial_priority rng ~exact_threshold ctx sampled w =
  let cin = Hashtbl.find ctx.preds w and cout = Hashtbl.find ctx.succs w in
  let a = Int_set.cardinal cin and b = Int_set.cardinal cout in
  let candidates = a * b in
  if candidates = 0 then 0.0
  else if candidates <= exact_threshold then begin
    let e = ref 0 in
    Int_set.iter
      (fun u ->
        Int_set.iter (fun v -> if u <> v && on_shortest ctx u w v then incr e) cout)
      cin;
    sqrt (float_of_int !e) /. 2.0
  end
  else begin
    incr sampled;
    let cin_arr = Int_set.to_array cin and cout_arr = Int_set.to_array cout in
    let n = min max_samples candidates in
    let hits = ref 0 in
    for _ = 1 to n do
      let u = cin_arr.(Splitmix.int rng a) and v = cout_arr.(Splitmix.int rng b) in
      if u <> v && on_shortest ctx u w v then incr hits
    done;
    let frac = Stats.proportion_ci_upper ~successes:!hits ~samples:n ~z:Stats.z_98 in
    sqrt (frac *. float_of_int candidates) /. 2.0
  end

let densest_for ctx uncov w =
  let cin = Hashtbl.find ctx.preds w and cout = Hashtbl.find ctx.succs w in
  let edges_of u =
    let vs = ref [] in
    if Uncovered.succ_count uncov u <= Int_set.cardinal cout then
      Uncovered.iter_succ uncov u (fun v ->
          if Int_set.mem v cout && on_shortest ctx u w v then vs := v :: !vs)
    else
      Int_set.iter
        (fun v -> if Uncovered.mem uncov u v && on_shortest ctx u w v then vs := v :: !vs)
        cout;
    !vs
  in
  Densest.run ~ins:(Int_set.to_array cin) ~edges_of

let apply_choice ctx cover uncov w (r : Densest.result) =
  let c_out_set = Ihs.create ~initial:(List.length r.Densest.c_out) () in
  List.iter (fun v -> Ihs.add c_out_set v) r.Densest.c_out;
  List.iter
    (fun u ->
      (match d ctx u w with
       | Some du -> Cover.add_out cover ~node:u ~center:w ~dist:du
       | None -> assert false);
      let vs = ref [] in
      if Uncovered.succ_count uncov u <= Ihs.cardinal c_out_set then
        Uncovered.iter_succ uncov u (fun v ->
            if Ihs.mem c_out_set v && on_shortest ctx u w v then vs := v :: !vs)
      else
        Ihs.iter
          (fun v -> if Uncovered.mem uncov u v && on_shortest ctx u w v then vs := v :: !vs)
          c_out_set;
      List.iter (fun v -> Uncovered.remove uncov u v) !vs)
    r.Densest.c_in;
  List.iter
    (fun v ->
      match d ctx w v with
      | Some dv -> Cover.add_in cover ~node:v ~center:w ~dist:dv
      | None -> assert false)
    r.Densest.c_out

let build ?(seed = 42) ?(exact_threshold = max_samples) g =
  let ctx = Trace.with_span "dist.apsp" (fun () -> make_ctx g) in
  let rng = Splitmix.create seed in
  let cover = Cover.create ~initial:(Digraph.n_nodes g) () in
  Digraph.iter_nodes g (fun v -> Cover.add_node cover v);
  let pairs = ref [] in
  Hashtbl.iter
    (fun u s -> Int_set.iter (fun v -> if u <> v then pairs := (u, v) :: !pairs) s)
    ctx.succs;
  let uncov = Uncovered.of_pairs !pairs in
  let iterations = ref 0 and recomputations = ref 0 and reinserts = ref 0 in
  let sampled = ref 0 in
  let queue = Heap.create () in
  Trace.with_span "dist.densities" (fun () ->
      Digraph.iter_nodes g (fun w ->
          let p = initial_priority rng ~exact_threshold ctx sampled w in
          if p > 0.0 then Heap.push queue ~prio:p w));
  Trace.with_span "dist.greedy" @@ fun () ->
  while not (Uncovered.is_empty uncov) do
    match Heap.pop_max queue with
    | None -> (
      (* exhausted estimates (possible when all initial priorities were 0 for
         isolated nodes): cover any leftover pair directly *)
      match Uncovered.choose uncov with
      | Some (u, v) ->
        (match d ctx u v with
         | Some duv -> Cover.add_out cover ~node:u ~center:v ~dist:duv
         | None -> assert false);
        Uncovered.remove uncov u v
      | None -> ())
    | Some (_, w) -> (
      incr recomputations;
      match densest_for ctx uncov w with
      | None -> ()
      | Some r ->
        let next_best =
          match Heap.peek_max queue with
          | Some (p, _) -> p
          | None -> neg_infinity
        in
        if r.Densest.density >= next_best then begin
          apply_choice ctx cover uncov w r;
          incr iterations;
          Heap.push queue ~prio:r.Densest.density w
        end
        else begin
          incr reinserts;
          Heap.push queue ~prio:r.Densest.density w
        end)
  done;
  ( cover,
    {
      iterations = !iterations;
      recomputations = !recomputations;
      reinserts = !reinserts;
      sampled_nodes = !sampled;
    } )
