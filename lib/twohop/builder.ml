module Ihs = Hopi_util.Int_hashset
module Heap = Hopi_util.Heap
module Bitrow = Hopi_util.Bitrow
module Closure = Hopi_graph.Closure
module Counter = Hopi_obs.Counter
module Histogram = Hopi_obs.Histogram
module Registry = Hopi_obs.Registry

(* Metrics only — no spans here: [build] runs concurrently on worker
   domains during the per-partition cover phase, and counters/histograms
   are the only recorders that are domain-safe and allocation-free. *)

let m_builds =
  Registry.counter "hopi_twohop_builds_total" ~help:"2-hop cover builds run"

let m_center_picks =
  Registry.counter "hopi_twohop_center_picks_total"
    ~help:"Centers applied by the greedy densest-subgraph loop"

let m_recomputations =
  Registry.counter "hopi_twohop_densest_recomputations_total"
    ~help:"Densest-subgraph recomputations (lazy priority refreshes)"

let m_center_graph_edges =
  Registry.counter "hopi_twohop_center_graph_edges_total"
    ~help:"Center-graph edges enumerated over all densest-subgraph recomputations"

let m_reinserts =
  Registry.counter "hopi_twohop_reinserts_total"
    ~help:"Heap reinserts after a stale priority lost to the next-best"

let h_uncovered_initial =
  Registry.histogram "hopi_twohop_uncovered_initial"
    ~help:"Uncovered connections at the start of a build"

let h_covered_per_pick =
  Registry.histogram "hopi_twohop_covered_per_pick"
    ~help:"Connections covered by a single center application"

type stats = {
  iterations : int;
  recomputations : int;
  reinserts : int;
}

(* {1 The greedy loop} *)

(* One build's state.  Everything runs on the closure's local numbers; the
   cover is written with node ids. *)
type ctx = {
  clo : Closure.t;
  cover : Cover.t;
  uncov : Uncovered.t;
  graph : Densest.t;
}

let context clo uncov =
  let cover = Cover.create ~initial:(Closure.n_nodes clo) () in
  Closure.iter_nodes clo (fun v -> Cover.add_node cover v);
  Histogram.observe h_uncovered_initial (Uncovered.count uncov);
  { clo; cover; uncov; graph = Densest.create () }

(* [w]'s densest center subgraph once [fill] has put its center graph in
   the workspace; [edges] counts the center-graph edges *)
let densest ctx fill edges w =
  Densest.start ctx.graph;
  fill w;
  let r = Densest.run ctx.graph in
  edges := !edges + Densest.edges ctx.graph;
  r

let greedy ctx ~prio ~fill ~apply =
  Counter.incr m_builds;
  let queue = Heap.create () in
  for w = 0 to Closure.n_nodes ctx.clo - 1 do
    let p = prio w in
    if p > 0.0 then Heap.push queue ~prio:p ~rank:w w
  done;
  let picks = ref 0 and recomputations = ref 0 and reinserts = ref 0 and edges = ref 0 in
  while not (Uncovered.is_empty ctx.uncov) do
    match Heap.pop_max queue with
    | None ->
      (* Cannot happen: any uncovered (u,v) keeps v's center graph non-empty,
         so v is queued and re-pushed after every use.  Guard anyway: queue
         v again, and the next round covers (u,v) through it. *)
      Option.iter (fun (_, v) -> Heap.push queue ~prio:0.0 ~rank:v v) (Uncovered.choose ctx.uncov)
    | Some (_, w) -> (
      incr recomputations;
      match densest ctx fill edges w with
      | None -> () (* nothing uncovered through w anymore: drop it *)
      | Some r ->
        let next_best =
          match Heap.peek_max queue with
          | Some (p, _) -> p
          | None -> neg_infinity
        in
        if r.Densest.density >= next_best then begin
          apply w r;
          Histogram.observe h_covered_per_pick r.Densest.n_edges;
          incr picks
        end
        else incr reinserts;
        (* w may still cover more connections later *)
        Heap.push queue ~prio:r.Densest.density ~rank:w w)
  done;
  Counter.add m_center_picks !picks;
  Counter.add m_recomputations !recomputations;
  Counter.add m_center_graph_edges !edges;
  Counter.add m_reinserts !reinserts;
  Cover.compact ctx.cover;
  (ctx.cover, { iterations = !picks; recomputations = !recomputations; reinserts = !reinserts })

(* {1 The plain builder}

   [mask] is a row from word 0 over all local numbers, all zero between
   uses. *)

let add_out ctx u w =
  Cover.add_out ctx.cover ~node:(Closure.id ctx.clo u) ~center:(Closure.id ctx.clo w)

let add_in ctx v w =
  Cover.add_in ctx.cover ~node:(Closure.id ctx.clo v) ~center:(Closure.id ctx.clo w)

(* Cover every uncovered connection running through [w] (used for center
   preselection): C'_in/C'_out are the ancestors/descendants of [w] that
   actually have an uncovered connection through it. *)
let cover_via_center ctx mask w =
  let lo = Closure.reach_lo ctx.clo w and r = Closure.reach_row ctx.clo w in
  let covered = ref 0 in
  Uncovered.iter_live_ins ctx.uncov w (fun u ->
      let n = Uncovered.cover ~touched:mask ctx.uncov u ~lo r in
      if n > 0 then begin
        add_out ctx u w;
        covered := !covered + n
      end);
  for k = lo to lo + Array.length r - 1 do
    Bitrow.iter_word (k * Bitrow.bits) mask.(k) (fun v -> add_in ctx v w);
    mask.(k) <- 0
  done;
  !covered

(* [w]'s center graph under the uncovered set: its left side is the live
   ancestors of [w], and each one's edges are the word AND of its
   uncovered row with [w]'s closure row. *)
let fill ctx w =
  let lo = Closure.reach_lo ctx.clo w and r = Closure.reach_row ctx.clo w in
  Uncovered.iter_live_ins ctx.uncov w (fun u ->
      Densest.add_left ctx.graph u;
      Uncovered.iter_into ctx.uncov u ~lo r (Densest.add_edge ctx.graph))

(* cover C'_in × C'_out through [w]: [mask] holds C'_out while each row
   of C'_in drops it *)
let apply_choice ctx mask w (r : Densest.result) =
  let bits = Bitrow.bits in
  Array.iter (fun v -> mask.(v / bits) <- mask.(v / bits) lor (1 lsl (v mod bits))) r.Densest.c_out;
  Array.iter
    (fun u ->
      add_out ctx u w;
      ignore (Uncovered.cover ctx.uncov u ~lo:0 mask))
    r.Densest.c_in;
  Array.iter
    (fun v ->
      add_in ctx v w;
      mask.(v / bits) <- 0)
    r.Densest.c_out

let empty_mask clo = Array.make ((Closure.n_nodes clo / Bitrow.bits) + 1) 0

let build ?(preselect_centers = []) ?only_pairs clo =
  let uncov =
    match only_pairs with
    | None -> Uncovered.of_closure clo
    | Some pairs ->
      Uncovered.of_pairs clo
        (List.map (fun (u, v) -> (Closure.number clo u, Closure.number clo v)) pairs
         |> List.filter (fun (x, y) -> x >= 0 && y >= 0))
  in
  let ctx = context clo uncov and mask = empty_mask clo in
  (* Section 4.2: preselected centers (cross-partition link targets) *)
  let seen = Ihs.create () and preselected = ref 0 in
  List.iter
    (fun w ->
      let x = Closure.number clo w in
      if x >= 0 && not (Ihs.mem seen x) then begin
        Ihs.add seen x;
        let covered = cover_via_center ctx mask x in
        if covered > 0 then begin
          incr preselected;
          Histogram.observe h_covered_per_pick covered
        end
      end)
    preselect_centers;
  Counter.add m_center_picks !preselected;
  (* Without a pair restriction the initial priority of a node is the
     density of its initial center graph — a complete bipartite graph,
     hence its own densest subgraph.  With [only_pairs] the initial center
     graphs are sparse, so the complete-bipartite formula overestimates
     wildly and would make the lazy queue churn; compute the exact initial
     densities instead. *)
  let prio =
    match only_pairs with
    | None ->
      fun w ->
        let a = ref 0 in
        Closure.iter_ancestors clo w (fun _ -> incr a);
        let d = Bitrow.count (Closure.reach_row clo w) in
        float_of_int (!a * d) /. float_of_int (!a + d)
    | Some _ -> (
      fun w ->
        match densest ctx (fill ctx) (ref 0) w with
        | Some r -> r.Densest.density
        | None -> 0.0)
  in
  let cover, st = greedy ctx ~prio ~fill:(fill ctx) ~apply:(apply_choice ctx mask) in
  (cover, { st with iterations = st.iterations + !preselected })

let build_eager clo =
  let ctx = context clo (Uncovered.of_closure clo) and mask = empty_mask clo in
  let iterations = ref 0 and recomputations = ref 0 and edges = ref 0 in
  while not (Uncovered.is_empty ctx.uncov) do
    (* scan every node for its current densest subgraph; ties to the
       lowest local number *)
    let best = ref None in
    for w = 0 to Closure.n_nodes clo - 1 do
      incr recomputations;
      match densest ctx (fill ctx) edges w with
      | None -> ()
      | Some r -> (
        match !best with
        | Some (_, r') when r'.Densest.density >= r.Densest.density -> ()
        | _ -> best := Some (w, r))
    done;
    match !best with
    | None -> assert false (* uncovered non-empty implies a non-empty center graph *)
    | Some (w, r) ->
      apply_choice ctx mask w r;
      Histogram.observe h_covered_per_pick r.Densest.n_edges;
      incr iterations
  done;
  Counter.add m_center_graph_edges !edges;
  Cover.compact ctx.cover;
  (ctx.cover, { iterations = !iterations; recomputations = !recomputations; reinserts = 0 })
