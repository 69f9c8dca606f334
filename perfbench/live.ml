(* The live-churn plan: a seeded maintenance stream and, for every
   generation it produces, the oracle's reply bodies for the read frames.

   A fifth of the documents are victims (Update_gen churn).  Operation
   [2k] deletes victim [k mod n] and operation [2k+1] re-inserts its
   original XML; the delete takes the Theorem 2 fast path when the
   document separates the document graph and the Theorem 3 path
   otherwise.  A flip publishes every operation, so generation [g] is
   the state after [g] operations and consecutive generations answer
   differently.  Reads only name elements of stable documents,
   whose ids never change, but their answers do: citation paths run
   through the victims.

   Link churn is not part of the served stream.  Deleting a link
   recomputes the cover of everything reachable from the source's
   ancestors, and on a 30-document corpus that costs from 0.2 ms to
   140 ms per operation depending on the seed, which no bound on the
   read latency beside it could absorb.  [links] holds add-link/del-link
   pairs between stable documents that the traced run replays
   in-process, so their cost is still reported per layer.

   The corpus and the victims come from [corpus_seed], which the
   benchmark holds fixed: a delete's cost depends on where the document
   sits in the citation graph, and across corpora of this size the
   slowest deletes differ several-fold, which would swamp the read
   latency measured beside them.  [seed] draws the reads and the links;
   which elements are hot follows the corpus.

   The oracle twin replays the same operations on a bare collection, in
   the same order, so element ids agree with the server's. *)

module Collection = Hopi_collection.Collection
module Splitmix = Hopi_util.Splitmix
module Update_gen = Hopi_workload.Update_gen

type plan = {
  groups : string array array;  (** per group: the [apply] operations *)
  links : string array array;  (** add-link/del-link pairs, traced run only *)
  reads : Workload.frame array;
  expected : string array array;  (** per generation, per read frame *)
}

let one_line xml = String.map (fun ch -> if ch = '\n' then ' ' else ch) xml

let plan ~corpus ~corpus_seed ~seed ~docs ~batch ~n_frames ~n_groups =
  let c = Util.load_dir corpus in
  let regen = Hopi_workload.Dblp_gen.document_xml (Util.dblp_config ~seed:corpus_seed ~docs) in
  let n_victims = max 2 (Collection.n_docs c / 5) in
  let victims =
    Update_gen.churn_trace ~seed:corpus_seed ~n_ops:(2 * n_victims) regen c
    |> List.filter_map (function
         | Update_gen.Reinsert_doc (name, xml) -> Some (name, one_line xml)
         | _ -> None)
    |> Array.of_list
  in
  let is_victim name = Array.exists (fun (v, _) -> String.equal v name) victims in
  let stable_docs =
    List.filter (fun d -> not (is_victim (Collection.doc_name c d))) (List.sort compare (Collection.doc_ids c))
    |> Array.of_list
  in
  let stable_nodes = Array.to_list stable_docs |> List.concat_map (Collection.elements_of_doc c) in
  let nodes = Workload.shuffled_nodes ~seed:corpus_seed stable_nodes in
  let reads = Workload.frames ~mix:Workload.Hot ~seed ~nodes ~batch ~n_frames in
  let bodies () =
    let o = Workload.oracle c in
    Array.map (Workload.expected o) reads
  in
  let rng = Splitmix.create (seed + 99) in
  let expected = ref [ bodies () ] in
  let groups =
    Array.init n_groups (fun g ->
        let name, xml = victims.(g / 2 mod Array.length victims) in
        let op =
          if g mod 2 = 0 then begin
            Collection.remove_document c (Option.get (Collection.find_doc c name));
            "del-doc " ^ name
          end
          else begin
            (match Collection.add_document_xml c ~name xml with
             | Ok _ -> ()
             | Error _ -> failwith ("live plan: bad XML for " ^ name));
            Printf.sprintf "add-doc %s %s" name xml
          end
        in
        expected := bodies () :: !expected;
        [| op |])
  in
  let links =
    Array.init 16 (fun _ ->
        let src = Splitmix.pick rng stable_docs in
        let dst = Splitmix.pick rng (Array.of_list (List.filter (( <> ) src) (Array.to_list stable_docs))) in
        let u = Collection.doc_root_element c src and v = Collection.doc_root_element c dst in
        [| Printf.sprintf "add-link %d %d" u v; Printf.sprintf "del-link %d %d" u v |])
  in
  { groups; links; reads; expected = Array.of_list (List.rev !expected) }

(* {1 The writer connection} *)

type writer = {
  mutable groups_done : int;
  mutable ops_done : int;
  mutable visible_ms : float list;
  mutable failed : int;
  mutable attempted : int;
  mutable error : string option;
}

let prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let control c cmd =
  let id = Loadgen.send c Hopi_serve.Frame.Control cmd in
  let reply = Loadgen.recv c in
  if reply.Hopi_serve.Frame.id <> id then failwith "writer: reply id mismatch";
  match reply.Hopi_serve.Frame.kind with
  | Hopi_serve.Frame.Response -> (
    match Hopi_serve.Frame.response_payload reply.Hopi_serve.Frame.payload with
    | Ok (_, lines) -> Ok (String.concat "\n" lines)
    | Error e -> Error e)
  | _ -> Error reply.Hopi_serve.Frame.payload

(* Apply group after group, one per [every] read frames answered, and
   flip each one in until [stop ()] holds or the plan runs out.  Tying
   the writes to the reads fixes the read/write mix, so the server's CPU
   time per read does not change with how fast the host runs the reads.
   Visibility is timed from the first [apply] of a group to its [flip]
   reply. *)
let run_writer c groups ~every ~stop =
  let w = { groups_done = 0; ops_done = 0; visible_ms = []; failed = 0; attempted = 0; error = None } in
  let t0 = Util.now () in
  (try
     while (not (stop ())) && w.groups_done < Array.length groups do
       (* the group is due once its share of reads is answered *)
       if Atomic.get Loadgen.answered < (w.groups_done + 1) * every then Unix.sleepf 0.001
       else begin
         let ops = groups.(w.groups_done) in
         let t_first = Util.now () in
         Array.iter
           (fun op ->
             w.attempted <- w.attempted + 1;
             match control c ("apply " ^ op) with
             | Ok r when prefix "ok:" r -> ()
             | Ok r | Error r ->
               w.failed <- w.failed + 1;
               failwith (Printf.sprintf "apply %s: %s" (String.sub op 0 (min 40 (String.length op))) r))
           ops;
         w.attempted <- w.attempted + 1;
         let want = Printf.sprintf "generation %d live" (w.groups_done + 1) in
         (match control c "flip" with
          | Ok r when prefix want r -> ()
          | Ok r | Error r ->
            w.failed <- w.failed + 1;
            failwith ("flip: " ^ r));
         w.visible_ms <- ((Util.now () -. t_first) *. 1000.0) :: w.visible_ms;
         w.groups_done <- w.groups_done + 1;
         w.ops_done <- w.ops_done + Array.length ops
       end
     done
   with Failure e -> w.error <- Some e);
  (w, Util.now () -. t0)
