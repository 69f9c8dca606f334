module Collection = Hopi_collection.Collection
module Hopi = Hopi_core.Hopi
module Traversal = Hopi_graph.Traversal
module Cover = Hopi_twohop.Cover
module Timer = Hopi_util.Timer
module Counter = Hopi_obs.Counter
module Histogram = Hopi_obs.Histogram
module Trace = Hopi_obs.Trace
module Registry = Hopi_obs.Registry

let log = Logs.Src.create "hopi.query.eval" ~doc:"Path-expression evaluation"

module Log = (val Logs.src_log log : Logs.LOG)

let m_evals =
  Registry.counter "hopi_query_evals_total" ~help:"Path expressions evaluated"

let m_matches =
  Registry.counter "hopi_query_matches_total" ~help:"Matches returned"

let m_reach_tests =
  Registry.counter "hopi_query_reach_tests_total"
    ~help:"Index reachability probes during evaluation"

let m_candidates =
  Registry.counter "hopi_query_candidates_total"
    ~help:"Step candidates considered (label probes)"

let h_query_ns =
  Registry.histogram "hopi_query_duration_ns" ~help:"Query evaluation time"

let h_label_entries =
  Registry.histogram "hopi_query_label_entries"
    ~help:"Lout(u) + Lin(v) label entries scanned per reachability probe"

type match_ = { path : int list; score : float }

type options = {
  ontology : Ontology.t;
  similarity_threshold : float;
  use_distance : bool;
  max_distance : int option;
  max_results : int;
}

let default_options =
  {
    ontology = Ontology.publications;
    similarity_threshold = 0.5;
    use_distance = false;
    max_distance = None;
    max_results = 100;
  }

(* Candidate elements for one step test, with their tag scores. *)
let candidates opts c (test : Path_expr.test) =
  let cands =
    match test with
    | Path_expr.Tag tag ->
      List.map (fun e -> (e, 1.0)) (Collection.elements_with_tag c tag)
    | Path_expr.Similar tag ->
      List.concat_map
        (fun (tag', sim) ->
          List.map (fun e -> (e, sim)) (Collection.elements_with_tag c tag'))
        (Ontology.expand opts.ontology tag ~threshold:opts.similarity_threshold)
    | Path_expr.Any ->
      let acc = ref [] in
      Collection.iter_elements c (fun e -> acc := (e, 1.0) :: !acc);
      !acc
  in
  Counter.add m_candidates (List.length cands);
  cands

(* partial match: reversed element path + score *)
let eval_generic ?descendants ~reaches ~dist opts idx (expr : Path_expr.t) =
  let c = Hopi.collection idx in
  let is_child u v =
    (Collection.element_info c v).Collection.el_parent = Some u
  in
  (* existential predicates: does a relative path match, anchored at [e]?
     memoised per (element, predicate) because the same element appears in
     many partial matches *)
  let pred_cache : (int * Path_expr.pred, bool) Hashtbl.t = Hashtbl.create 64 in
  let text = lazy (Hopi.text_index idx) in
  let rec predicates_hold e (step : Path_expr.step) =
    List.for_all
      (fun p ->
        let key = (e, p) in
        match Hashtbl.find_opt pred_cache key with
        | Some r -> r
        | None ->
          let r =
            match p with
            | Path_expr.Path expr -> anchored_nonempty e expr
            | Path_expr.Contains term ->
              Hopi_collection.Text_index.subtree_contains (Lazy.force text) c e term
          in
          Hashtbl.add pred_cache key r;
          r)
      step.Path_expr.predicates
  and anchored_nonempty anchor (pexpr : Path_expr.t) =
    let finals =
      List.fold_left
        (fun partials step -> step_partials partials step)
        (Some [ ([ anchor ], 1.0) ])
        pexpr
    in
    match finals with
    | Some (_ :: _) -> true
    | _ -> false
  and step_partials partials (step : Path_expr.step) =
    let cands = candidates opts c step.Path_expr.test in
    match partials with
    | None ->
      (* first step: [/x] anchors at document roots, [//x] anywhere *)
      let keep =
        match step.Path_expr.axis with
        | Path_expr.Descendant -> fun _ -> true
        | Path_expr.Child ->
          fun e -> (Collection.element_info c e).Collection.el_parent = None
      in
      Some
        (List.filter_map
           (fun (e, s) ->
             if keep e && predicates_hold e step then Some ([ e ], s) else None)
           cands)
    | Some ps ->
      (* two physical plans for a step: filter the tag candidates by a
         reachability test each, or enumerate the descendant set and keep
         the tag matches.  Enumeration wins when the candidate set is large
         and the reachable neighbourhood is small. *)
      let scored_test =
        match step.Path_expr.test with
        | Path_expr.Tag tag -> fun e -> if Collection.tag_of c e = tag then Some 1.0 else None
        | Path_expr.Any -> fun _ -> Some 1.0
        | Path_expr.Similar tag ->
          let sims = Hashtbl.create 8 in
          List.iter
            (fun (t, s) -> if not (Hashtbl.mem sims t) then Hashtbl.add sims t s)
            (Ontology.expand opts.ontology tag
               ~threshold:opts.similarity_threshold);
          fun e -> Hashtbl.find_opt sims (Collection.tag_of c e)
      in
      let use_enumeration =
        descendants <> None
        && step.Path_expr.axis = Path_expr.Descendant
        && List.length cands > 64
      in
      Some
        (List.concat_map
           (fun (path, score) ->
             let last = List.hd path in
             let step_candidates =
               if use_enumeration then begin
                 let desc = (Option.get descendants) last in
                 Hopi_util.Int_hashset.fold
                   (fun e acc ->
                     match scored_test e with
                     | Some s when e <> last -> (e, s) :: acc
                     | _ -> acc)
                   desc []
               end
               else cands
             in
             List.filter_map
               (fun (e, tag_score) ->
                 match step.Path_expr.axis with
                 | Path_expr.Child ->
                   if is_child last e && predicates_hold e step then
                     Some (e :: path, score *. tag_score)
                   else None
                 | Path_expr.Descendant ->
                   if e <> last && reaches last e && predicates_hold e step then begin
                     let keep =
                       match opts.max_distance with
                       | None -> true
                       | Some bound -> (
                         match dist last e with
                         | Some d -> d <= bound
                         | None -> false)
                     in
                     if keep then begin
                       let s = score *. tag_score in
                       let s =
                         if opts.use_distance then
                           match dist last e with
                           | Some d -> s *. Ranking.distance_score d
                           | None -> s
                         else s
                       in
                       Some (e :: path, s)
                     end
                     else None
                   end
                   else None)
               step_candidates)
           ps)
  in
  let finals = List.fold_left step_partials None expr in
  let ranked =
    List.map
      (fun (path, score) -> { Ranking.item = List.rev path; score })
      (Option.value ~default:[] finals)
  in
  List.map
    (fun r -> { path = r.Ranking.item; score = r.Ranking.score })
    (Ranking.top_k opts.max_results ranked)

let finish_eval t0 matches =
  Histogram.observe h_query_ns (Int64.to_int (Timer.elapsed_ns t0));
  Counter.add m_matches (List.length matches);
  Trace.add "matches" (List.length matches);
  Log.debug (fun m -> m "query returned %d matches" (List.length matches));
  matches

let eval ?(options = default_options) idx expr =
  Counter.incr m_evals;
  Trace.with_span "query.eval" @@ fun () ->
  let t0 = Timer.start () in
  let dist =
    if options.use_distance || options.max_distance <> None then
      let d = Hopi.distance_index idx in
      fun u v -> Cover.dist d u v
    else fun _ _ -> None
  in
  let cover = Hopi.cover idx in
  let reaches u v =
    Counter.incr m_reach_tests;
    Histogram.observe h_label_entries
      (Cover.lout_cardinal cover u + Cover.lin_cardinal cover v);
    Hopi.connected idx u v
  in
  finish_eval t0
    (eval_generic
       ~descendants:(fun u -> Hopi.descendants idx u)
       ~reaches ~dist options idx expr)

let eval_naive ?(options = default_options) idx expr =
  Counter.incr m_evals;
  Trace.with_span "query.eval_naive" @@ fun () ->
  let t0 = Timer.start () in
  let g = Collection.element_graph (Hopi.collection idx) in
  (* one BFS per distinct source, memoised across candidate pairs *)
  let cache = Hashtbl.create 64 in
  let distances u =
    match Hashtbl.find_opt cache u with
    | Some d -> d
    | None ->
      let d = Traversal.bfs_distances g u in
      Hashtbl.add cache u d;
      d
  in
  let reaches u v = Hashtbl.mem (distances u) v in
  let dist u v = Hashtbl.find_opt (distances u) v in
  finish_eval t0 (eval_generic ~reaches ~dist options idx expr)
