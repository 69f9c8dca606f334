(* Shared greedy partition-growth loop used by both partitioners.

   A partition starts from a (pseudo-random) seed document and grows by
   repeatedly pulling in the unassigned document with the largest total
   link weight to the current partition, keeping linked documents together
   and the weight of cross-partition edges low.  The partitioners differ
   only in their admission test. *)

module Collection = Hopi_collection.Collection
module Doc_graph = Hopi_collection.Doc_graph
module Partitioning = Hopi_collection.Partitioning
module Digraph = Hopi_graph.Digraph
module Ihs = Hopi_util.Int_hashset
module Splitmix = Hopi_util.Splitmix

let log = Logs.Src.create "hopi.partition" ~doc:"document-level partitioning"

module Log = (val Logs.src_log log : Logs.LOG)

(* [admits] is consulted with the candidate document *before* it is added;
   [added] notifies acceptance so the admission state can be updated.
   [skip_budget] failed candidates are tolerated before the partition is
   closed. *)
let run ?(seed = 17) ?(skip_budget = 5) c (dg : Doc_graph.t)
    ~(fresh_partition : unit -> unit) ~(admits : int -> bool) ~(added : int -> unit) =
  let tests = ref 0 and rejections = ref 0 in
  let admits d =
    incr tests;
    admits d
  in
  let rng = Splitmix.create seed in
  let docs = Array.of_list (List.sort compare (Collection.doc_ids c)) in
  Splitmix.shuffle rng docs;
  let assigned = Hashtbl.create (Array.length docs) in
  let part_of_doc = Hashtbl.create (Array.length docs) in
  let n_parts = ref 0 in
  let weight_between d d' =
    Doc_graph.edge_weight dg d d' +. Doc_graph.edge_weight dg d' d
  in
  Array.iter
    (fun seed_doc ->
      if not (Hashtbl.mem assigned seed_doc) then begin
        let pid = !n_parts in
        incr n_parts;
        fresh_partition ();
        let assign d =
          Hashtbl.replace assigned d ();
          Hashtbl.replace part_of_doc d pid;
          added d
        in
        (* The seed is always admitted: a partition holds at least one
           document, even when the document alone exceeds the budget. *)
        ignore (admits seed_doc);
        assign seed_doc;
        (* frontier: unassigned neighbours scored by link weight to part *)
        let score = Hashtbl.create 16 in
        let update_frontier d =
          let consider nd =
            if (not (Hashtbl.mem assigned nd)) && nd <> d then begin
              let prev = Option.value ~default:0.0 (Hashtbl.find_opt score nd) in
              Hashtbl.replace score nd (prev +. weight_between d nd)
            end
          in
          Digraph.iter_succ dg.Doc_graph.graph d consider;
          Digraph.iter_pred dg.Doc_graph.graph d consider
        in
        update_frontier seed_doc;
        let failures = ref 0 in
        let rejected = Ihs.create () in
        let rec grow () =
          if !failures <= skip_budget then begin
            (* best-scored candidate not yet rejected for this partition *)
            let best = ref None in
            Hashtbl.iter
              (fun d s ->
                if (not (Hashtbl.mem assigned d)) && not (Ihs.mem rejected d) then
                  match !best with
                  | Some (_, s') when s' >= s -> ()
                  | _ -> best := Some (d, s))
              score;
            match !best with
            | None -> ()
            | Some (d, _) ->
              if admits d then begin
                assign d;
                Hashtbl.remove score d;
                update_frontier d;
                grow ()
              end
              else begin
                incr failures;
                incr rejections;
                Ihs.add rejected d;
                grow ()
              end
          end
        in
        grow ()
      end)
    docs;
  (* recorded on the caller's open span: [build.partition.grow] in a build *)
  Hopi_obs.Trace.add "admission_tests" !tests;
  Hopi_obs.Trace.add "rejected" !rejections;
  Log.info (fun m ->
      m "grew %d partitions: %d admission tests, %d rejected" !n_parts !tests !rejections);
  Partitioning.make c ~part_of_doc ~n:!n_parts
