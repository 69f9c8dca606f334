(* Tests for hopi_twohop: Cover, Uncovered, Densest, Builder, Dist_builder,
   Verify. *)

open Hopi_twohop
open Hopi_graph
module Ihs = Hopi_util.Int_hashset
module Int_set = Hopi_util.Int_set
module Splitmix = Hopi_util.Splitmix

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_list = Alcotest.(check (list int))

let of_edges edges =
  let g = Digraph.create () in
  List.iter (fun (u, v) -> Digraph.add_edge g u v) edges;
  g

let diamond () = of_edges [ (0, 1); (1, 3); (0, 2); (2, 3); (3, 4); (4, 3) ]

(* {1 Cover} *)

let test_cover_manual () =
  (* cover of path 1 -> 2 -> 3 with center 2 *)
  let c = Cover.create () in
  List.iter (Cover.add_node c) [ 1; 2; 3 ];
  Cover.add_out c ~node:1 ~center:2;
  Cover.add_in c ~node:3 ~center:2;
  check_bool "1->2 (implicit self in Lin 2)" true (Cover.connected c 1 2);
  check_bool "2->3" true (Cover.connected c 2 3);
  check_bool "1->3 via 2" true (Cover.connected c 1 3);
  check_bool "reflexive" true (Cover.connected c 2 2);
  check_bool "3->1 no" false (Cover.connected c 3 1);
  check_int "size" 2 (Cover.size c)

let test_cover_self_entries_skipped () =
  let c = Cover.create () in
  Cover.add_node c 7;
  Cover.add_in c ~node:7 ~center:7;
  Cover.add_out c ~node:7 ~center:7;
  check_int "implicit self not stored" 0 (Cover.size c);
  check_bool "still reflexive" true (Cover.connected c 7 7)

let test_cover_ancestors_descendants () =
  let c = Cover.create () in
  List.iter (Cover.add_node c) [ 1; 2; 3 ];
  Cover.add_out c ~node:1 ~center:2;
  Cover.add_in c ~node:3 ~center:2;
  let desc = Cover.descendants c 1 in
  check_list "desc 1" [ 1; 2; 3 ] (List.sort compare (Ihs.to_list desc));
  let anc = Cover.ancestors c 3 in
  check_list "anc 3" [ 1; 2; 3 ] (List.sort compare (Ihs.to_list anc));
  check_list "anc 1" [ 1 ] (Ihs.to_list (Cover.ancestors c 1))

(* a connection through a hop center is as long as the two entries' DIST
   column together; re-adding an entry keeps its least distance *)
let test_cover_hop_center () =
  let check_dist = Alcotest.(check (option int)) in
  let c = Cover.create () in
  List.iter (Cover.add_node c) [ 1; 2; 3 ];
  Cover.add_out c ~node:1 ~center:2 ~dist:2;
  Cover.add_in c ~node:3 ~center:2 ~dist:3;
  check_dist "through the center" (Some 5) (Cover.dist c 1 3);
  check_dist "to the center" (Some 2) (Cover.dist c 1 2);
  check_dist "none" None (Cover.dist c 3 1);
  check_dist "self" (Some 0) (Cover.dist c 1 1);
  check_dist "unregistered" None (Cover.dist c 1 9);
  Cover.add_out c ~node:1 ~center:2 ~dist:7;
  check_dist "a longer entry is ignored" (Some 5) (Cover.dist c 1 3);
  Cover.add_out c ~node:1 ~center:2;
  check_dist "a shorter one wins" (Some 3) (Cover.dist c 1 3);
  check_int "entries" 2 (Cover.size c)

(* distances follow their entries through replacement, removal, union
   and the packed bulk path *)
let test_cover_dist_column () =
  let rows iter c v =
    let l = ref [] in
    iter c v (fun w d -> l := (w, d) :: !l);
    List.sort compare !l
  in
  let check_rows = Alcotest.(check (list (pair int int))) in
  let c = Cover.create () in
  List.iter (Cover.add_node c) [ 1; 2; 3; 4 ];
  Cover.add_in c ~node:1 ~center:2 ~dist:4;
  Cover.add_in c ~node:1 ~center:3 ~dist:5;
  Cover.set_lin c 1 (Int_set.of_list [ 3; 4 ]);
  check_rows "set_lin keeps surviving distances" [ (3, 5); (4, 0) ] (rows Cover.iter_lin c 1);
  Cover.add_in c ~node:1 ~center:2;
  check_rows "a dropped entry comes back at its new distance" [ (2, 0); (3, 5); (4, 0) ]
    (rows Cover.iter_lin c 1);
  Cover.add_out c ~node:4 ~center:3 ~dist:6;
  Cover.remove_node c 3;
  check_rows "remove_node drops entries naming it" [ (2, 0); (4, 0) ] (rows Cover.iter_lin c 1);
  Cover.add_out c ~node:4 ~center:3 ~dist:1;
  check_rows "and its distances" [ (3, 1) ] (rows Cover.iter_lout c 4);
  let d = Cover.create () in
  Cover.add_out d ~node:4 ~center:3 ~dist:9;
  Cover.add_out c ~node:2 ~center:1 ~dist:2;
  Cover.union_into ~dst:d c;
  check_rows "union keeps the least distance" [ (3, 1) ] (rows Cover.iter_lout d 4);
  check_rows "and carries the source's" [ (1, 2) ] (rows Cover.iter_lout d 2);
  let d = Cover.merge [| d |] ~lout:[| Cover.pack_entry ~node:4 ~center:3 |] ~lin:[||] in
  check_rows "a packed entry is at distance 0" [ (3, 0) ] (rows Cover.iter_lout d 4)

let test_cover_set_labels () =
  let c = Cover.create () in
  List.iter (Cover.add_node c) [ 1; 2; 3; 4 ];
  Cover.add_out c ~node:1 ~center:2;
  Cover.add_out c ~node:1 ~center:3;
  check_int "size 2" 2 (Cover.size c);
  Cover.set_lout c 1 (Int_set.of_list [ 3; 4 ]);
  check_int "size stays 2" 2 (Cover.size c);
  check_list "lout" [ 3; 4 ] (Int_set.to_list (Cover.lout c 1));
  (* backward index consistency *)
  check_bool "2 inv dropped" false (Int_set.mem 1 (Cover.out_labelled_with c 2));
  check_bool "4 inv added" true (Int_set.mem 1 (Cover.out_labelled_with c 4))

let test_cover_remove_node () =
  let c = Cover.create () in
  List.iter (Cover.add_node c) [ 1; 2; 3 ];
  Cover.add_out c ~node:1 ~center:2;
  Cover.add_in c ~node:3 ~center:2;
  Cover.add_out c ~node:1 ~center:3;
  Cover.remove_node c 2;
  check_bool "node gone" false (Cover.mem_node c 2);
  check_list "lout 1 keeps 3" [ 3 ] (Int_set.to_list (Cover.lout c 1));
  check_int "size" 1 (Cover.size c)

let test_cover_union_into () =
  let a = Cover.create () and b = Cover.create () in
  List.iter (Cover.add_node a) [ 1; 2 ];
  Cover.add_out a ~node:1 ~center:2;
  List.iter (Cover.add_node b) [ 2; 3 ];
  Cover.add_in b ~node:3 ~center:2;
  Cover.union_into ~dst:a b;
  check_bool "1->3" true (Cover.connected a 1 3);
  check_int "size" 2 (Cover.size a)

let test_cover_merge_disjoint () =
  let a = Cover.create () and b = Cover.create () in
  Cover.add_out a ~node:1 ~center:2;
  Cover.add_in b ~node:3 ~center:2;
  let m = Cover.merge [| a; b |] ~lout:[||] ~lin:[||] in
  check_bool "1->3" true (Cover.connected m 1 3);
  Cover.add_node b 1;
  match Cover.merge [| a; b |] ~lout:[||] ~lin:[||] with
  | _ -> Alcotest.fail "merged two covers sharing node 1"
  | exception Invalid_argument _ -> ()

(* {2 The overlay against a reference model}

   Random sequences of writes, unions, merges and compactions over a few
   ids, so that entries collide, centers need not be nodes and nodes keep
   empty labels.  After every step each read of the cover is compared
   with a model of plain hash tables, and the nodes the change hook
   reported with the nodes whose labels the step changed. *)

module Model = struct
  type t = {
    nodes : (int, unit) Hashtbl.t;
    lin : (int * int, int) Hashtbl.t;  (* (node, center) -> dist *)
    lout : (int * int, int) Hashtbl.t;
    changed : (int, unit) Hashtbl.t;  (* nodes whose labels the step changed *)
  }

  let create () =
    { nodes = Hashtbl.create 16; lin = Hashtbl.create 16; lout = Hashtbl.create 16;
      changed = Hashtbl.create 16 }

  let side m is_in = if is_in then m.lin else m.lout

  let add_node m v = Hashtbl.replace m.nodes v ()

  let add m is_in ~node ~center ~dist =
    if node <> center then begin
      add_node m node;
      let t = side m is_in in
      match Hashtbl.find_opt t (node, center) with
      | None ->
        Hashtbl.replace t (node, center) dist;
        Hashtbl.replace m.changed node ()
      | Some d ->
        if dist < d then begin
          Hashtbl.replace t (node, center) dist;
          Hashtbl.replace m.changed node ()
        end
    end

  (* [node]'s row, ascending by center *)
  let row m is_in v =
    Hashtbl.fold (fun (n, c) d acc -> if n = v then (c, d) :: acc else acc) (side m is_in) []
    |> List.sort compare

  let set m is_in node centers =
    add_node m node;
    let t = side m is_in in
    let keep = List.filter (fun c -> c <> node) centers in
    List.iter
      (fun (c, _) ->
        if not (List.mem c keep) then begin
          Hashtbl.remove t (node, c);
          Hashtbl.replace m.changed node ()
        end)
      (row m is_in node);
    List.iter
      (fun c ->
        if not (Hashtbl.mem t (node, c)) then begin
          Hashtbl.replace t (node, c) 0;
          Hashtbl.replace m.changed node ()
        end)
      keep

  let remove_node m v =
    if Hashtbl.mem m.nodes v then begin
      set m true v [];
      set m false v [];
      List.iter
        (fun is_in ->
          let t = side m is_in in
          let namers = Hashtbl.fold (fun (n, c) _ acc -> if c = v then n :: acc else acc) t [] in
          List.iter
            (fun n ->
              Hashtbl.remove t (n, v);
              Hashtbl.replace m.changed n ())
            namers)
        [ true; false ];
      Hashtbl.remove m.nodes v;
      Hashtbl.replace m.changed v ()
    end

  let namers m is_in w =
    Hashtbl.fold (fun (n, c) _ acc -> if c = w then n :: acc else acc) (side m is_in) []
    |> List.sort compare

  let mem m v = Hashtbl.mem m.nodes v

  let dist m u v =
    if not (mem m u && mem m v) then None
    else if u = v then Some 0
    else begin
      let best = ref None in
      let note d = match !best with Some b when b <= d -> () | _ -> best := Some d in
      let out_u = (u, 0) :: row m false u and in_v = (v, 0) :: row m true v in
      List.iter
        (fun (w, du) -> List.iter (fun (w', dv) -> if w = w' then note (du + dv)) in_v)
        out_u;
      !best
    end

  (* the node, each center of its labels on one side, and every node
     naming one of those centers on the other *)
  let reach_set m ~own ~other u =
    if not (mem m u) then []
    else
      (u :: List.map fst (row m own u))
      |> List.concat_map (fun w -> w :: namers m other w)
      |> List.sort_uniq compare

  let size m = Hashtbl.length m.lin + Hashtbl.length m.lout
end

type cover_op =
  | Add of bool * int * int * int  (* Lin?, node, center, dist *)
  | Add_node of int
  | Set of bool * int * int list
  | Remove of int
  | Union of (bool * int * int * int) list * bool  (* entries of a fresh cover, frozen? *)
  | Merge of (bool * int * int) list * (bool * int * int * int) list
      (* packed entries, entries of a second cover *)
  | Compact

let show_cover_op = function
  | Add (i, n, c, d) -> Printf.sprintf "add_%s %d %d ~dist:%d" (if i then "in" else "out") n c d
  | Add_node v -> Printf.sprintf "add_node %d" v
  | Set (i, n, cs) ->
    Printf.sprintf "set_%s %d [%s]" (if i then "lin" else "lout") n
      (String.concat ";" (List.map string_of_int cs))
  | Remove v -> Printf.sprintf "remove_node %d" v
  | Union (es, frozen) -> Printf.sprintf "union_into (%d entries, frozen %b)" (List.length es) frozen
  | Merge (es, more) ->
    Printf.sprintf "merge (%d packed, a second cover of %d entries)" (List.length es) (List.length more)
  | Compact -> "compact"

let n_ids = 10

let prop_cover_overlay_model =
  let open QCheck2.Gen in
  let id = int_bound (n_ids - 1) in
  let dist = oneof [ pure 0; int_range 1 3 ] in
  let entry = map (fun (((i, n), c), d) -> (i, n, c, d)) (pair (pair (pair bool id) id) dist) in
  let op =
    frequency
      [
        (10, map (fun (i, n, c, d) -> Add (i, n, c, d)) entry);
        (2, map (fun v -> Add_node v) id);
        (3, map (fun ((i, n), cs) -> Set (i, n, cs)) (pair (pair bool id) (list_size (int_bound 4) id)));
        (2, map (fun v -> Remove v) id);
        (2, map (fun (es, f) -> Union (es, f)) (pair (list_size (int_bound 6) entry) bool));
        (1, map (fun (es, more) -> Merge (es, more))
              (pair (list_size (int_bound 6) (triple bool id id)) (list_size (int_bound 4) entry)));
        (3, pure Compact);
      ]
  in
  QCheck2.Test.make ~name:"cover overlay = hash-table model" ~count:300
    ~print:(fun ops -> String.concat "; " (List.map show_cover_op ops))
    (list_size (int_range 1 40) op)
    (fun ops ->
      let m = Model.create () in
      let c = ref (Cover.create ()) in
      let reported = Hashtbl.create 16 in
      let hook t = Cover.set_on_label_change t (Some (fun v -> Hashtbl.replace reported v ())) in
      hook !c;
      let cover_of es =
        let src = Cover.create () in
        List.iter
          (fun (is_in, node, center, dist) ->
            (if is_in then Cover.add_in else Cover.add_out) ~dist src ~node ~center)
          es;
        src
      in
      let fail step what = QCheck2.Test.fail_reportf "after %s: %s" (show_cover_op step) what in
      let sorted_ihs h = List.sort compare (Ihs.to_list h) in
      let rows iter v =
        let l = ref [] in
        iter !c v (fun w d -> l := (w, d) :: !l);
        List.sort compare !l
      in
      let check step =
        let t = !c in
        let ids = List.init (n_ids + 2) (fun i -> i - 1) in
        if List.sort compare (Cover.nodes t) <> List.sort compare (Hashtbl.fold (fun v () l -> v :: l) m.Model.nodes [])
        then fail step "nodes";
        if Cover.size t <> Model.size m then
          fail step (Printf.sprintf "size %d, model %d" (Cover.size t) (Model.size m));
        List.iter
          (fun v ->
            if Cover.mem_node t v <> Model.mem m v then fail step (Printf.sprintf "mem_node %d" v);
            List.iter
              (fun (is_in, name, iter, labels, card, labelled) ->
                let want = Model.row m is_in v in
                if rows iter v <> want then fail step (Printf.sprintf "iter_%s %d" name v);
                if Int_set.to_list (labels t v) <> List.map fst want then fail step (Printf.sprintf "%s %d" name v);
                if card t v <> List.length want then fail step (Printf.sprintf "%s_cardinal %d" name v);
                if Int_set.to_list (labelled t v) <> Model.namers m is_in v then
                  fail step (Printf.sprintf "%s_labelled_with %d" name v))
              [ (true, "lin", Cover.iter_lin, Cover.lin, Cover.lin_cardinal, Cover.in_labelled_with);
                (false, "lout", Cover.iter_lout, Cover.lout, Cover.lout_cardinal, Cover.out_labelled_with) ];
            if sorted_ihs (Cover.descendants t v) <> Model.reach_set m ~own:false ~other:true v then
              fail step (Printf.sprintf "descendants %d" v);
            if sorted_ihs (Cover.ancestors t v) <> Model.reach_set m ~own:true ~other:false v then
              fail step (Printf.sprintf "ancestors %d" v);
            List.iter
              (fun u ->
                let want = Model.dist m v u in
                if Cover.dist t v u <> want then fail step (Printf.sprintf "dist %d %d" v u);
                if Cover.connected t v u <> (want <> None) then fail step (Printf.sprintf "connected %d %d" v u))
              ids)
          ids;
        let got = List.sort compare (Hashtbl.fold (fun v () l -> v :: l) reported []) in
        let want = List.sort compare (Hashtbl.fold (fun v () l -> v :: l) m.Model.changed []) in
        if got <> want then fail step "nodes reported by the change hook"
      in
      List.iter
        (fun step ->
          Hashtbl.reset reported;
          Hashtbl.reset m.Model.changed;
          (match step with
           | Add (is_in, node, center, dist) ->
             (if is_in then Cover.add_in else Cover.add_out) ~dist !c ~node ~center;
             Model.add m is_in ~node ~center ~dist
           | Add_node v ->
             Cover.add_node !c v;
             Model.add_node m v
           | Set (is_in, node, cs) ->
             (if is_in then Cover.set_lin else Cover.set_lout) !c node (Int_set.of_list cs);
             Model.set m is_in node cs
           | Remove v ->
             Cover.remove_node !c v;
             Model.remove_node m v
           | Union (es, frozen) ->
             let src = cover_of es in
             if frozen then Cover.compact src;
             Cover.union_into ~dst:!c src;
             List.iter (fun (is_in, node, center, dist) -> Model.add m is_in ~node ~center ~dist) es
           | Merge (es, more) ->
             let packed is_in =
               List.filter_map
                 (fun (i, node, center) -> if i = is_in then Some (Cover.pack_entry ~node ~center) else None)
                 es
               |> List.sort compare |> Array.of_list
             in
             (* merged covers have disjoint nodes: entries for nodes of
                the cover are joined into it, the rest come as a second
                cover *)
             let overlapping, disjoint = List.partition (fun (_, node, _, _) -> Cover.mem_node !c node) more in
             Cover.union_into ~dst:!c (cover_of overlapping);
             Hashtbl.reset reported;
             c := Cover.merge [| !c; cover_of disjoint |] ~lout:(packed false) ~lin:(packed true);
             hook !c;
             List.iter (fun (is_in, node, center, dist) -> Model.add m is_in ~node ~center ~dist) more;
             List.iter (fun (is_in, node, center) -> Model.add m is_in ~node ~center ~dist:0) es;
             (* a new cover: nothing reports *)
             Hashtbl.reset m.Model.changed
           | Compact -> Cover.compact !c);
          check step)
        ops;
      true)

(* {2 Stores do not depend on the representation} *)

let store_bytes cover =
  let vfs = Hopi_storage.Vfs.memory () in
  let p = Hopi_storage.Pager.create_vfs ~vfs "s.db" in
  Hopi_storage.Cover_store.save (Hopi_storage.Cover_store.of_cover p cover);
  Hopi_storage.Pager.close p;
  let h = vfs.Hopi_storage.Vfs.open_file "s.db" ~create:false in
  let len = h.Hopi_storage.Vfs.size () in
  let b = Bytes.create len in
  ignore (Hopi_storage.Vfs.read_full h b ~off:0 ~pos:0 ~len);
  h.Hopi_storage.Vfs.close ();
  Bytes.to_string b

let prop_store_independent_of_representation =
  let open QCheck2.Gen in
  let id = int_bound 30 in
  QCheck2.Test.make ~name:"of_cover: frozen = built through the overlay" ~count:60
    (triple (list_size (int_range 1 80) (quad bool id id (oneof [ pure 0; int_range 1 5 ])))
       (list_size (int_bound 6) id) bool)
    (fun (entries, empty_nodes, with_dist) ->
      let entries =
        List.map (fun (i, n, c, d) -> (i, n, c, if with_dist then d else 0)) entries
      in
      (* nodes only below 25, so centers from 25 up are not nodes *)
      let entries = List.filter (fun (_, n, _, _) -> n < 25) entries in
      let empty_nodes = List.filter (fun v -> v < 25) empty_nodes in
      let fill c es =
        List.iter (Cover.add_node c) empty_nodes;
        List.iter
          (fun (is_in, node, center, dist) ->
            (if is_in then Cover.add_in else Cover.add_out) ~dist c ~node ~center)
          es
      in
      (* frozen: every entry added, then compacted *)
      let frozen = Cover.create () in
      fill frozen entries;
      Cover.compact frozen;
      (* the overlay alone, entries in the other order *)
      let overlay = Cover.create () in
      fill overlay (List.rev entries);
      (* half frozen, half in the overlay over it *)
      let half = List.length entries / 2 in
      let mixed = Cover.create () in
      fill mixed (List.filteri (fun i _ -> i < half) entries);
      Cover.compact mixed;
      fill mixed (List.filteri (fun i _ -> i >= half) entries);
      let want = store_bytes frozen in
      let same c = String.equal want (store_bytes c) in
      (* distance 0 only: the same entries packed into a merge *)
      let merged =
        with_dist
        ||
        let packed is_in =
          List.filter_map
            (fun (i, node, center, _) -> if i = is_in then Some (Cover.pack_entry ~node ~center) else None)
            entries
          |> List.sort compare |> Array.of_list
        in
        let base = Cover.create () in
        List.iter (Cover.add_node base) empty_nodes;
        same (Cover.merge [| base |] ~lout:(packed false) ~lin:(packed true))
      in
      same overlay && same mixed && merged)

(* {1 Uncovered} *)

let test_uncovered_basics () =
  let clo = Closure.compute (diamond ()) in
  let u = Uncovered.of_closure clo in
  let n0 = Closure.number clo 0 and n4 = Closure.number clo 4 in
  (* diamond closure has 15 connections for nodes 0-4 incl reflexive(5);
     non-reflexive = 15 - 5 = 10 *)
  check_int "count" 10 (Uncovered.count u);
  check_bool "mem" true (Uncovered.mem u n0 n4);
  check_bool "no reflexive" false (Uncovered.mem u n0 n0);
  Uncovered.remove u n0 n4;
  check_bool "removed" false (Uncovered.mem u n0 n4);
  check_int "count after" 9 (Uncovered.count u);
  Uncovered.remove u n0 n4;
  check_int "idempotent" 9 (Uncovered.count u)

(* {1 Densest} *)

(* one center graph: [ins] ascending, [edges_of u] its right nodes *)
let densest ~ins ~edges_of =
  let d = Densest.create () in
  Densest.start d;
  Array.iter
    (fun u ->
      Densest.add_left d u;
      List.iter (Densest.add_edge d) (edges_of u))
    ins;
  Densest.run d

let test_densest_complete_bipartite () =
  (* K_{2,3}: density = 6/5 *)
  let edges_of u = if u = 1 || u = 2 then [ 10; 11; 12 ] else [] in
  match densest ~ins:[| 1; 2 |] ~edges_of with
  | None -> Alcotest.fail "expected a subgraph"
  | Some r ->
    Alcotest.(check (float 1e-9)) "density" (6.0 /. 5.0) r.Densest.density;
    check_int "edges" 6 r.Densest.n_edges;
    check_list "c_in" [ 1; 2 ] (Array.to_list r.Densest.c_in);
    check_list "c_out" [ 10; 11; 12 ] (Array.to_list r.Densest.c_out)

let test_densest_picks_dense_part () =
  (* node 1..3 fully connected to 10..12 (9 edges), node 4 with single edge
     to 20: densest subgraph should be the K_{3,3} part *)
  let edges_of = function
    | 1 | 2 | 3 -> [ 10; 11; 12 ]
    | 4 -> [ 20 ]
    | _ -> []
  in
  match densest ~ins:[| 1; 2; 3; 4 |] ~edges_of with
  | None -> Alcotest.fail "expected a subgraph"
  | Some r ->
    check_list "c_in" [ 1; 2; 3 ] (Array.to_list r.Densest.c_in);
    check_list "c_out" [ 10; 11; 12 ] (Array.to_list r.Densest.c_out);
    Alcotest.(check (float 1e-9)) "density" 1.5 r.Densest.density

let test_densest_no_edges () =
  check_bool "none" true (densest ~ins:[| 1; 2 |] ~edges_of:(fun _ -> []) = None)

let test_densest_shared_node_both_sides () =
  (* the same id may appear as in-node and out-node (cycles) *)
  let edges_of = function 1 -> [ 1; 2 ] | 2 -> [ 1 ] | _ -> [] in
  match densest ~ins:[| 1; 2 |] ~edges_of with
  | None -> Alcotest.fail "expected a subgraph"
  | Some r -> check_int "3 edges" 3 r.Densest.n_edges

(* {1 Builder} *)

let random_graph seed n p =
  let rng = Splitmix.create seed in
  let g = Digraph.create () in
  for v = 0 to n - 1 do
    Digraph.add_node g v
  done;
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Splitmix.float rng 1.0 < p then Digraph.add_edge g u v
    done
  done;
  g

let build_and_verify g =
  let clo = Closure.compute g in
  let cover, _ = Builder.build clo in
  Verify.cover_vs_graph cover g

let test_builder_diamond () =
  check_int "no mismatches" 0 (List.length (build_and_verify (diamond ())))

let test_builder_empty_graph () =
  let g = Digraph.create () in
  Digraph.add_node g 1;
  Digraph.add_node g 2;
  check_int "isolated nodes" 0 (List.length (build_and_verify g))

let test_builder_chain () =
  let g = of_edges (List.init 20 (fun i -> (i, i + 1))) in
  check_int "chain" 0 (List.length (build_and_verify g))

let test_builder_cycle () =
  let g = of_edges (List.init 10 (fun i -> (i, (i + 1) mod 10))) in
  check_int "cycle" 0 (List.length (build_and_verify g))

let test_builder_dense_bipartite () =
  let edges = List.concat_map (fun u -> List.map (fun v -> (u, 100 + v)) (List.init 8 Fun.id)) (List.init 8 Fun.id) in
  let g = of_edges edges in
  check_int "bipartite" 0 (List.length (build_and_verify g))

let test_builder_hub_compression () =
  (* 8 sources -> hub -> 8 sinks: 80 transitive connections, but the greedy
     builder should find the hub center and need ~16 label entries *)
  let edges =
    List.init 8 (fun i -> (i, 100)) @ List.init 8 (fun j -> (100, 200 + j))
  in
  let g = of_edges edges in
  check_int "exact" 0 (List.length (build_and_verify g));
  let clo = Closure.compute g in
  check_int "closure size" 97 (Closure.n_connections clo);
  let cover, _ = Builder.build clo in
  check_bool "compresses" true (Cover.size cover <= 20)

let test_builder_self_loop () =
  let g = of_edges [ (1, 1); (1, 2) ] in
  check_int "self loop" 0 (List.length (build_and_verify g))

let test_builder_preselect_correct () =
  let g = diamond () in
  let clo = Closure.compute g in
  let cover, _ = Builder.build ~preselect_centers:[ 3; 0 ] clo in
  check_int "still exact" 0 (List.length (Verify.cover_vs_graph cover g))

let test_builder_preselect_unknown_center () =
  let g = diamond () in
  let clo = Closure.compute g in
  let cover, _ = Builder.build ~preselect_centers:[ 999 ] clo in
  check_int "ignored" 0 (List.length (Verify.cover_vs_graph cover g))

let test_builder_eager_matches_lazy () =
  let g = random_graph 77 14 0.2 in
  let clo = Closure.compute g in
  let lazy_cover, lazy_stats = Builder.build clo in
  let eager_cover, eager_stats = Builder.build_eager clo in
  check_int "both exact (lazy)" 0 (List.length (Verify.cover_vs_graph lazy_cover g));
  check_int "both exact (eager)" 0 (List.length (Verify.cover_vs_graph eager_cover g));
  check_bool "lazy recomputes less" true
    (lazy_stats.Builder.recomputations < eager_stats.Builder.recomputations)

let test_builder_only_pairs () =
  let g = of_edges [ (0, 1); (1, 2); (2, 3); (10, 11) ] in
  let clo = Closure.compute g in
  (* only require 0 ⇝ 3: the cover must answer it, and must stay sound
     (never claim 10 ⇝ 0 etc.) *)
  let cover, _ = Builder.build ~only_pairs:[ (0, 3); (10, 0) (* not connected *) ] clo in
  check_bool "required pair" true (Cover.connected cover 0 3);
  check_bool "sound" false (Cover.connected cover 10 0);
  check_bool "sound2" false (Cover.connected cover 3 0);
  (* pairs not required may be unanswered, but any true answer is correct *)
  let g_check u v got = if got then Alcotest.(check bool) "no false positive" true
      (Hopi_graph.Traversal.is_reachable g u v) in
  Digraph.iter_nodes g (fun u ->
      Digraph.iter_nodes g (fun v -> g_check u v (Cover.connected cover u v)))

let prop_builder_exact =
  QCheck2.Test.make ~name:"Builder covers exactly the closure" ~count:50
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 1 16))
    (fun (seed, n) ->
      let g = random_graph seed n 0.18 in
      build_and_verify g = [])

let prop_builder_not_larger_than_closure =
  QCheck2.Test.make ~name:"cover size <= closure connections" ~count:30
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 2 14))
    (fun (seed, n) ->
      let g = random_graph seed n 0.25 in
      let clo = Closure.compute g in
      let cover, _ = Builder.build clo in
      (* each closure connection adds at most 2 label entries; greedy covers
         should do no worse than the trivial labelling *)
      Cover.size cover <= 2 * Closure.n_connections clo)

(* {1 Properties of the dense cover phase} *)

(* One workspace for every case: a stale right-node index between runs
   shows up as a wrong graph. *)
let shared_densest = Densest.create ()

(* a random bipartite graph of at most 7+7 nodes: ascending left numbers,
   right numbers drawn from the same range (a number may sit on both
   sides), each edge with probability [p] *)
let gen_bipartite =
  QCheck2.Gen.(
    map
      (fun (seed, nl, nr) ->
        let rng = Splitmix.create seed in
        let pick k =
          let a = Array.init 12 Fun.id in
          Splitmix.shuffle rng a;
          List.sort compare (Array.to_list (Array.sub a 0 k))
        in
        let left = pick nl and right = pick nr and p = Splitmix.float rng 1.0 in
        List.map (fun u -> (u, List.filter (fun _ -> Splitmix.float rng 1.0 < p) right)) left)
      (triple (int_range 0 1_000_000) (int_range 0 7) (int_range 0 7)))

(* subsets as bit masks over each side's distinct nodes *)
let brute_force_density g =
  let left = Array.of_list (List.map fst g) in
  let right = Array.of_list (List.sort_uniq compare (List.concat_map snd g)) in
  let index a x =
    let r = ref (-1) in
    Array.iteri (fun i y -> if y = x then r := i) a;
    !r
  in
  let edges = List.concat_map (fun (u, vs) -> List.map (fun v -> (index left u, index right v)) vs) g in
  let best = ref 0.0 in
  for ml = 0 to (1 lsl Array.length left) - 1 do
    for mr = 0 to (1 lsl Array.length right) - 1 do
      let nodes = Hopi_util.Bitrow.popcount ml + Hopi_util.Bitrow.popcount mr in
      let e =
        List.length (List.filter (fun (i, j) -> ml land (1 lsl i) <> 0 && mr land (1 lsl j) <> 0) edges)
      in
      if nodes > 0 then best := Float.max !best (float_of_int e /. float_of_int nodes)
    done
  done;
  !best

let prop_densest_brute_force =
  QCheck2.Test.make ~name:"Densest.run: 2-approximation, recount and no isolated node (≤ 7+7 nodes)"
    ~count:300 gen_bipartite (fun g ->
      let d = shared_densest in
      Densest.start d;
      List.iter
        (fun (u, vs) ->
          Densest.add_left d u;
          List.iter (Densest.add_edge d) vs)
        g;
      let m = List.length (List.concat_map snd g) in
      Densest.edges d = m
      &&
      match Densest.run d with
      | None -> m = 0
      | Some r ->
        let edge u v = List.mem v (List.assoc u g) in
        let kept_edges =
          Array.fold_left
            (fun n u -> n + Array.fold_left (fun n v -> if edge u v then n + 1 else n) 0 r.Densest.c_out)
            0 r.Densest.c_in
        in
        let nodes = Array.length r.Densest.c_in + Array.length r.Densest.c_out in
        m > 0
        && r.Densest.n_edges = kept_edges
        && r.Densest.density = float_of_int kept_edges /. float_of_int nodes
        && r.Densest.density *. 2.0 >= brute_force_density g -. 1e-9
        && Array.for_all (fun u -> Array.exists (edge u) r.Densest.c_out) r.Densest.c_in
        && Array.for_all (fun v -> Array.exists (fun u -> edge u v) r.Densest.c_in) r.Densest.c_out)

(* A random digraph with strongly connected components, large enough for
   closure rows of several words: mostly forward edges along a random
   order, plus a few back edges that close cycles. *)
let gen_scc_graph =
  QCheck2.Gen.(
    map
      (fun (seed, n) ->
        let rng = Splitmix.create seed in
        let order = Array.init n Fun.id in
        Splitmix.shuffle rng order;
        let g = Digraph.create () in
        Array.iter (fun v -> Digraph.add_node g (3 * v)) order;
        for _ = 1 to n + (n / 2) do
          let i = Splitmix.int rng n and j = Splitmix.int rng n in
          let i, j = if Splitmix.int rng 12 = 0 then (max i j, min i j) else (min i j, max i j) in
          if i <> j then Digraph.add_edge g (3 * order.(i)) (3 * order.(j))
        done;
        (seed, g))
      (pair (int_range 0 1_000_000) (int_range 1 160)))

let prop_uncovered_model =
  QCheck2.Test.make ~name:"Uncovered = pair-set model under random removals" ~count:40
    gen_scc_graph (fun (seed, g) ->
      let clo = Closure.compute g in
      let n = Closure.n_nodes clo in
      let rng = Splitmix.create (seed + 1) in
      let reach x y = x <> y && Closure.mem clo (Closure.id clo x) (Closure.id clo y) in
      (* from the full closure, or from a random subset of pairs (some not
         in the closure, some reflexive) *)
      let model = Hashtbl.create 64 in
      let t =
        if Splitmix.bool rng then begin
          for x = 0 to n - 1 do
            for y = 0 to n - 1 do
              if reach x y then Hashtbl.replace model (x, y) ()
            done
          done;
          Uncovered.of_closure clo
        end
        else begin
          let pairs = List.init (3 * n) (fun _ -> (Splitmix.int rng n, Splitmix.int rng n)) in
          List.iter (fun (x, y) -> if reach x y then Hashtbl.replace model (x, y) ()) pairs;
          Uncovered.of_pairs clo pairs
        end
      in
      let succs x = List.filter (fun y -> Hashtbl.mem model (x, y)) (List.init n Fun.id) in
      let agrees () =
        let ok = ref (Uncovered.count t = Hashtbl.length model) in
        let live = ref 0 in
        for x = 0 to n - 1 do
          let want = succs x in
          if want <> [] then incr live;
          let got = ref [] in
          Uncovered.iter_into t x ~lo:(Closure.reach_lo clo x) (Closure.reach_row clo x) (fun y ->
              got := y :: !got);
          if List.rev !got <> want then ok := false;
          for y = 0 to n - 1 do
            if Uncovered.mem t x y <> Hashtbl.mem model (x, y) then ok := false
          done;
          let ins = ref [] in
          Uncovered.iter_live_ins t x (fun u -> ins := u :: !ins);
          let want_ins =
            List.filter (fun u -> (u = x || reach u x) && succs u <> []) (List.init n Fun.id)
          in
          if List.rev !ins <> want_ins then ok := false
        done;
        !ok && Uncovered.is_empty t = (!live = 0)
      in
      let ok = ref (agrees ()) in
      for _ = 1 to 12 do
        let x = Splitmix.int rng n and w = Splitmix.int rng n in
        if Splitmix.bool rng then begin
          (* one pair, possibly not uncovered *)
          Uncovered.remove t x w;
          Hashtbl.remove model (x, w)
        end
        else begin
          (* every pair from x into w's reach, as a center's preselection does *)
          let touched = Array.make ((n / Hopi_util.Bitrow.bits) + 1) 0 in
          let want = List.filter (fun y -> reach w y || y = w) (succs x) in
          let got = Uncovered.cover ~touched t x ~lo:(Closure.reach_lo clo w) (Closure.reach_row clo w) in
          List.iter (fun y -> Hashtbl.remove model (x, y)) want;
          let marked = ref [] in
          Hopi_util.Bitrow.iter ~lo:0 touched (fun y -> marked := y :: !marked);
          if got <> List.length want || List.rev !marked <> want then ok := false
        end;
        if not (agrees ()) then ok := false
      done;
      (match Uncovered.choose t with
       | None -> if Hashtbl.length model <> 0 then ok := false
       | Some p -> if not (Hashtbl.mem model p) then ok := false);
      !ok)

let prop_builder_pairs_and_centers =
  QCheck2.Test.make
    ~name:"Builder ~only_pairs and ~preselect_centers = BFS on graphs with SCCs" ~count:40
    gen_scc_graph (fun (seed, g) ->
      let rng = Splitmix.create (seed + 2) in
      let nodes = Array.of_list (Digraph.nodes g) in
      let n = Array.length nodes in
      let any () = if Splitmix.int rng 10 = 0 then 1 else nodes.(Splitmix.int rng n) in
      let reach = Hashtbl.create n in
      Array.iter (fun u -> Hashtbl.replace reach u (Hopi_graph.Traversal.reachable g [ u ])) nodes;
      let reaches u v = match Hashtbl.find_opt reach u with Some s -> Ihs.mem s v | None -> false in
      let clo = Closure.compute g in
      (* the Flix path: only the listed pairs must be answered (pairs of
         unknown ids and unconnected pairs are listed too); no answer may
         be a false positive *)
      let pairs = List.init (2 * n) (fun _ -> (any (), any ())) in
      let cover, _ = Builder.build ~only_pairs:pairs clo in
      let sound = ref true in
      Array.iter
        (fun u -> Array.iter (fun v -> if Cover.connected cover u v && not (reaches u v) then sound := false) nodes)
        nodes;
      let pairs_ok =
        List.for_all (fun (u, v) -> (not (reaches u v)) || u = v || Cover.connected cover u v) pairs
      in
      (* preselected centers, unknown ids and repeats among them: exact *)
      let centers = List.init (Splitmix.int rng 8) (fun _ -> any ()) in
      let cover, _ = Builder.build ~preselect_centers:(centers @ centers) clo in
      !sound && pairs_ok && Verify.cover_vs_graph cover g = [])

(* {1 Dist_builder} *)

let test_dist_builder_diamond () =
  let g = diamond () in
  let cover, _ = Dist_builder.build g in
  check_int "distances exact" 0 (List.length (Verify.dist_cover_vs_graph cover g))

let test_dist_builder_chain () =
  let g = of_edges (List.init 12 (fun i -> (i, i + 1))) in
  let cover, _ = Dist_builder.build g in
  check_int "chain distances" 0 (List.length (Verify.dist_cover_vs_graph cover g));
  Alcotest.(check (option int)) "end to end" (Some 12) (Cover.dist cover 0 12)

let test_dist_builder_two_paths () =
  (* short path 0->1->5 and long path 0->2->3->4->5: distance must be 2 *)
  let g = of_edges [ (0, 1); (1, 5); (0, 2); (2, 3); (3, 4); (4, 5) ] in
  let cover, _ = Dist_builder.build g in
  Alcotest.(check (option int)) "min path" (Some 2) (Cover.dist cover 0 5);
  check_int "all exact" 0 (List.length (Verify.dist_cover_vs_graph cover g))

let test_dist_builder_sampling_mode () =
  (* exact_threshold 0 forces the sampling estimator everywhere *)
  let g = random_graph 7 14 0.2 in
  let cover, stats = Dist_builder.build ~exact_threshold:0 g in
  check_int "exact with sampling" 0 (List.length (Verify.dist_cover_vs_graph cover g));
  check_bool "sampling used" true (stats.Dist_builder.sampled_nodes > 0)

(* Both builders run the one greedy loop, which records its work in the
   [hopi_twohop_*] counters: around a build, the counters move by the
   build's own stats. *)
let test_greedy_counters () =
  let module Counter = Hopi_obs.Counter in
  let picks = Hopi_obs.Registry.counter "hopi_twohop_center_picks_total"
  and recomputations = Hopi_obs.Registry.counter "hopi_twohop_densest_recomputations_total" in
  let deltas name build =
    let p0 = Counter.get picks and r0 = Counter.get recomputations in
    let iterations, recomps = build () in
    check_bool (name ^ " picks something") true (iterations > 0);
    check_int (name ^ ": center picks") iterations (Counter.get picks - p0);
    check_int (name ^ ": recomputations") recomps (Counter.get recomputations - r0)
  in
  let g = random_graph 7 14 0.2 in
  deltas "plain" (fun () ->
      let _, st = Builder.build (Closure.compute g) in
      (st.Builder.iterations, st.Builder.recomputations));
  deltas "distance" (fun () ->
      let _, st = Dist_builder.build g in
      (st.Dist_builder.iterations, st.Dist_builder.recomputations))

let prop_dist_builder_exact =
  QCheck2.Test.make ~name:"Dist_builder returns exact distances" ~count:30
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 1 12))
    (fun (seed, n) ->
      let g = random_graph seed n 0.2 in
      let cover, _ = Dist_builder.build g in
      Verify.dist_cover_vs_graph cover g = [])

(* {1 Label_codec}

   Differentials for the delta-encoded label layout the serving layer
   caches and probes: encoding must round-trip exactly, and every
   streamwise probe must agree with a naive reference over the decoded
   rows — including multi-distance runs of one center, where the probes
   skip within the run. *)

(* rows sorted by (center, dist), duplicates allowed; centers span
   several varint byte widths *)
let gen_rows =
  let open QCheck2.Gen in
  let center = oneof [ int_bound 30; int_bound 5_000; int_bound 3_000_000 ] in
  let dist = int_bound 300 in
  list_size (int_bound 40) (pair center dist) >|= fun l ->
  Array.of_list (List.sort compare l)

let flatten_rows rows =
  Array.concat (Array.to_list (Array.map (fun (c, d) -> [| c; d |]) rows))

let prop_codec_roundtrip =
  QCheck2.Test.make ~name:"codec: encode_pairs round-trips exactly" ~count:200
    gen_rows (fun rows ->
      let enc = Label_codec.encode_pairs rows in
      if Label_codec.to_array enc <> flatten_rows rows then
        QCheck2.Test.fail_report "decoded rows differ from input";
      if Label_codec.n_rows enc <> Array.length rows then
        QCheck2.Test.fail_report "row count differs";
      (* canonicity: re-encoding the decoded rows is byte-identical *)
      let rows' =
        Array.init (Array.length rows) (fun i ->
            let a = Label_codec.to_array enc in
            (a.(2 * i), a.((2 * i) + 1)))
      in
      if Label_codec.encode_pairs rows' <> enc then
        QCheck2.Test.fail_report "re-encoding is not byte-identical";
      (* iteration order is the sort order *)
      let seen = ref [] in
      Label_codec.iter enc (fun ~center ~dist -> seen := (center, dist) :: !seen);
      Array.of_list (List.rev !seen) = rows)

(* naive reference probes over a row array *)
let ref_find_min_dist rows center =
  Array.fold_left
    (fun acc (c, d) -> if c = center && (acc < 0 || d < acc) then d else acc)
    (-1) rows

let ref_centers rows =
  List.sort_uniq compare (Array.to_list (Array.map fst rows))

let ref_merge_min a b =
  List.fold_left
    (fun acc c ->
      let da = ref_find_min_dist a c and db = ref_find_min_dist b c in
      if da >= 0 && db >= 0 && (acc < 0 || da + db < acc) then da + db else acc)
    (-1)
    (ref_centers a)

let prop_codec_probes =
  QCheck2.Test.make ~name:"codec: streamwise probes = naive reference"
    ~count:200
    QCheck2.Gen.(pair gen_rows gen_rows)
    (fun (ra, rb) ->
      let a = Label_codec.encode_pairs ra and b = Label_codec.encode_pairs rb in
      let centers = ref_centers ra @ ref_centers rb @ [ 0; 1; 31; 5_001 ] in
      List.iter
        (fun c ->
          if Label_codec.find_min_dist a c <> ref_find_min_dist ra c then
            QCheck2.Test.fail_reportf "find_min_dist diverges on center %d" c;
          if Label_codec.mem a c <> (ref_find_min_dist ra c >= 0) then
            QCheck2.Test.fail_reportf "mem diverges on center %d" c)
        centers;
      let seen = ref [] in
      Label_codec.iter_centers a (fun c -> seen := c :: !seen);
      if List.rev !seen <> ref_centers ra then
        QCheck2.Test.fail_report "iter_centers diverges from sorted uniq";
      let inter_ref =
        List.exists (fun c -> ref_find_min_dist rb c >= 0) (ref_centers ra)
      in
      if Label_codec.intersects a b <> inter_ref then
        QCheck2.Test.fail_report "intersects diverges";
      if Label_codec.merge_min a b <> ref_merge_min ra rb then
        QCheck2.Test.fail_report "merge_min diverges";
      true)

(* [iter_unmarked] over several rows sharing one mark array yields each
   center once, in first-seen order: rows with dense runs (the 8-byte
   step), duplicate centers at several distances, deltas and distances
   of two varint bytes (the fallback), and rows embedded mid-buffer *)
let prop_codec_iter_unmarked =
  let gen_row =
    let open QCheck2.Gen in
    let center = oneof [ int_bound 40; int_bound 600; int_bound 4_999 ] in
    let dist = oneof [ return 0; int_bound 3; int_bound 300 ] in
    list_size (int_bound 60) (pair center dist) >|= fun l -> Array.of_list (List.sort compare l)
  in
  QCheck2.Test.make ~name:"codec: iter_unmarked yields each center once" ~count:300
    QCheck2.Gen.(pair (list_size (int_range 1 5) gen_row) (int_bound 9))
    (fun (rows, pad) ->
      let seen = Bytes.make 5_000 '\000' and got = ref [] and want = ref [] in
      let c = Label_codec.cursor () in
      List.iter
        (fun r ->
          Array.iter (fun (w, _) -> if not (List.mem w !want) then want := w :: !want) r;
          let enc = Label_codec.encode_pairs r in
          let buf = Bytes.make (Bytes.length enc + (2 * pad)) '\xff' in
          Bytes.blit enc 0 buf pad (Bytes.length enc);
          Label_codec.reset c buf ~pos:pad ~len:(Bytes.length enc);
          Label_codec.iter_unmarked c seen (fun w -> got := w :: !got);
          if Label_codec.advance c then QCheck2.Test.fail_report "cursor left inside the row")
        rows;
      if !got <> !want then QCheck2.Test.fail_report "yields differ from the first-seen centers";
      true)

let test_codec_iter_unmarked_bounds () =
  let c = Label_codec.cursor () in
  let enc = Label_codec.encode_pairs [| (3, 0); (9, 0) |] in
  Label_codec.reset c enc ~pos:0 ~len:(Bytes.length enc);
  match Label_codec.iter_unmarked c (Bytes.make 9 '\000') ignore with
  | () -> Alcotest.fail "a center past the marks was accepted"
  | exception Invalid_argument _ -> ()

(* the allocation-free cursor, pointed at a set embedded mid-buffer (as a
   stored row sits on a page), decodes exactly [to_array]; and the probes
   built on it agree with a model computed from [to_array] alone *)
let prop_codec_cursor_model =
  QCheck2.Test.make ~name:"codec: cursor and probes = to_array model" ~count:200
    QCheck2.Gen.(triple gen_rows gen_rows (int_bound 9))
    (fun (ra, rb, pad) ->
      let a = Label_codec.encode_pairs ra and b = Label_codec.encode_pairs rb in
      let model enc =
        let x = Label_codec.to_array enc in
        List.init (Array.length x / 2) (fun i -> (x.(2 * i), x.((2 * i) + 1)))
      in
      let ma = model a and mb = model b in
      (* a cursor over [pad] junk bytes, the set, then junk again *)
      let buf = Bytes.make (Bytes.length a + (2 * pad)) '\xff' in
      Bytes.blit a 0 buf pad (Bytes.length a);
      let c = Label_codec.cursor () in
      Label_codec.reset c buf ~pos:pad ~len:(Bytes.length a);
      let got = ref [] in
      while Label_codec.advance c do
        got := (Label_codec.center c, Label_codec.dist c) :: !got
      done;
      if List.rev !got <> ma then QCheck2.Test.fail_report "cursor decodes differently";
      if Label_codec.advance c then QCheck2.Test.fail_report "cursor runs past its range";
      let centers m = List.sort_uniq compare (List.map fst m) in
      let min_dist m x =
        List.fold_left (fun acc (c, d) -> if c = x && (acc < 0 || d < acc) then d else acc) (-1) m
      in
      let seen = ref [] in
      Label_codec.iter_centers a (fun x -> seen := x :: !seen);
      if List.rev !seen <> centers ma then QCheck2.Test.fail_report "iter_centers";
      List.iter
        (fun x ->
          if Label_codec.find_min_dist a x <> min_dist ma x then
            QCheck2.Test.fail_reportf "find_min_dist %d" x)
        (centers ma @ centers mb);
      let common = List.filter (fun x -> min_dist mb x >= 0) (centers ma) in
      if Label_codec.intersects a b <> (common <> []) then QCheck2.Test.fail_report "intersects";
      let best =
        List.fold_left
          (fun acc x ->
            let d = min_dist ma x + min_dist mb x in
            if acc < 0 || d < acc then d else acc)
          (-1) common
      in
      if Label_codec.merge_min a b <> best then QCheck2.Test.fail_report "merge_min";
      (* a range that drops the last byte cuts the last row's distance:
         refused, not misread *)
      if Bytes.length a > 0 then begin
        Label_codec.reset c a ~pos:0 ~len:(Bytes.length a - 1);
        match
          while Label_codec.advance c do
            ()
          done
        with
        | () -> QCheck2.Test.fail_report "a cut row decoded"
        | exception Invalid_argument _ -> ()
      end;
      true)

(* the layout the snapshot caches: a built cover's label rows, plain or
   with distances, sorted by (center, dist) and encoded, decode back to
   exactly the uncompressed label sets and distances *)
let prop_codec_cover_roundtrip =
  QCheck2.Test.make
    ~name:"codec: encoded cover labels decode to the uncompressed cover"
    ~count:40
    QCheck2.Gen.(triple (int_range 0 100000) (int_range 1 14) bool)
    (fun (seed, n, dist) ->
      let g = random_graph seed n 0.22 in
      let cover =
        if dist then fst (Dist_builder.build g) else fst (Builder.build (Closure.compute g))
      in
      List.iter (fun v ->
          let check name iter set =
            let rows = ref [] in
            iter cover v (fun c d -> rows := (c, d) :: !rows);
            let rows = Array.of_list (List.sort compare !rows) in
            let got = Label_codec.to_array (Label_codec.encode_pairs rows) in
            if got <> flatten_rows rows || Array.to_list (Array.map fst rows) <> Int_set.to_list set then
              QCheck2.Test.fail_reportf "%s(%d) decodes wrong" name v
          in
          check "Lin" Cover.iter_lin (Cover.lin cover v);
          check "Lout" Cover.iter_lout (Cover.lout cover v))
        (Cover.nodes cover);
      true)

let test_codec_enc_rejects_unsorted () =
  let enc_of rows = ignore (Label_codec.encode_pairs rows) in
  Alcotest.check_raises "unsorted centers"
    (Invalid_argument "Label_codec.Enc.row: rows not sorted by (center, dist)")
    (fun () -> enc_of [| (5, 0); (3, 0) |]);
  Alcotest.check_raises "unsorted dists within a run"
    (Invalid_argument "Label_codec.Enc.row: rows not sorted by (center, dist)")
    (fun () -> enc_of [| (5, 2); (5, 1) |]);
  Alcotest.check_raises "negative field"
    (Invalid_argument "Label_codec.Enc.row: negative field") (fun () ->
      enc_of [| (-1, 0) |])

let test_codec_empty () =
  check_int "no rows" 0 (Label_codec.n_rows Label_codec.empty);
  check_int "no bytes" 0 (Label_codec.size_bytes Label_codec.empty);
  check_bool "mem on empty" false (Label_codec.mem Label_codec.empty 0);
  check_int "find on empty" (-1) (Label_codec.find_min_dist Label_codec.empty 0);
  check_bool "intersects empty" false
    (Label_codec.intersects Label_codec.empty Label_codec.empty);
  check_int "merge empty" (-1)
    (Label_codec.merge_min Label_codec.empty Label_codec.empty)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "twohop.cover",
      [
        Alcotest.test_case "manual cover" `Quick test_cover_manual;
        Alcotest.test_case "self entries" `Quick test_cover_self_entries_skipped;
        Alcotest.test_case "ancestors/descendants" `Quick test_cover_ancestors_descendants;
        Alcotest.test_case "hop center" `Quick test_cover_hop_center;
        Alcotest.test_case "dist column" `Quick test_cover_dist_column;
        Alcotest.test_case "set labels" `Quick test_cover_set_labels;
        Alcotest.test_case "remove node" `Quick test_cover_remove_node;
        Alcotest.test_case "union_into" `Quick test_cover_union_into;
        Alcotest.test_case "merge needs disjoint nodes" `Quick test_cover_merge_disjoint;
      ]
      @ qsuite [ prop_cover_overlay_model; prop_store_independent_of_representation ] );
    ( "twohop.uncovered",
      [ Alcotest.test_case "basics" `Quick test_uncovered_basics ] @ qsuite [ prop_uncovered_model ] );
    ( "twohop.densest",
      [
        Alcotest.test_case "complete bipartite" `Quick test_densest_complete_bipartite;
        Alcotest.test_case "picks dense part" `Quick test_densest_picks_dense_part;
        Alcotest.test_case "no edges" `Quick test_densest_no_edges;
        Alcotest.test_case "node on both sides" `Quick test_densest_shared_node_both_sides;
      ]
      @ qsuite [ prop_densest_brute_force ] );
    ( "twohop.builder",
      [
        Alcotest.test_case "diamond" `Quick test_builder_diamond;
        Alcotest.test_case "isolated" `Quick test_builder_empty_graph;
        Alcotest.test_case "chain" `Quick test_builder_chain;
        Alcotest.test_case "cycle" `Quick test_builder_cycle;
        Alcotest.test_case "dense bipartite" `Quick test_builder_dense_bipartite;
        Alcotest.test_case "hub compression" `Quick test_builder_hub_compression;
        Alcotest.test_case "self loop" `Quick test_builder_self_loop;
        Alcotest.test_case "preselect" `Quick test_builder_preselect_correct;
        Alcotest.test_case "preselect unknown" `Quick test_builder_preselect_unknown_center;
        Alcotest.test_case "eager = lazy" `Quick test_builder_eager_matches_lazy;
        Alcotest.test_case "only_pairs" `Quick test_builder_only_pairs;
      ]
      @ qsuite
          [ prop_builder_exact; prop_builder_not_larger_than_closure; prop_builder_pairs_and_centers ] );
    ( "twohop.dist",
      [
        Alcotest.test_case "diamond" `Quick test_dist_builder_diamond;
        Alcotest.test_case "chain" `Quick test_dist_builder_chain;
        Alcotest.test_case "two paths" `Quick test_dist_builder_two_paths;
        Alcotest.test_case "sampling mode" `Quick test_dist_builder_sampling_mode;
        Alcotest.test_case "greedy counters" `Quick test_greedy_counters;
      ]
      @ qsuite [ prop_dist_builder_exact ] );
    ( "twohop.codec",
      [
        Alcotest.test_case "empty label set" `Quick test_codec_empty;
        Alcotest.test_case "encoder rejects unsorted rows" `Quick
          test_codec_enc_rejects_unsorted;
        Alcotest.test_case "iter_unmarked checks centers against the marks" `Quick
          test_codec_iter_unmarked_bounds;
      ]
      @ qsuite
          [ prop_codec_roundtrip; prop_codec_probes; prop_codec_cursor_model;
            prop_codec_iter_unmarked; prop_codec_cover_roundtrip ]
    );
  ]
