(* Tests for hopi_query: path parsing, ontology, index-backed evaluation vs
   the naive BFS oracle. *)

open Hopi_query
module Collection = Hopi_collection.Collection
module Hopi = Hopi_core.Hopi
module Dblp = Hopi_workload.Dblp_gen

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* {1 Path_expr} *)

let test_parse_basic () =
  let open Path_expr in
  (match parse "//book//author" with
   | Ok [ { axis = Descendant; test = Tag "book" }; { axis = Descendant; test = Tag "author" } ] -> ()
   | _ -> Alcotest.fail "//book//author");
  (match parse "/bib/book" with
   | Ok [ { axis = Child; test = Tag "bib" }; { axis = Child; test = Tag "book" } ] -> ()
   | _ -> Alcotest.fail "/bib/book");
  (match parse "//~book//*" with
   | Ok [ { axis = Descendant; test = Similar "book" }; { axis = Descendant; test = Any } ] -> ()
   | _ -> Alcotest.fail "//~book//*")

(* prints a path expression back in the syntax [Path_expr.parse] reads *)
let rec show (t : Path_expr.t) =
  String.concat ""
    (List.map
       (fun { Path_expr.axis; test; predicates } ->
         (match axis with Child -> "/" | Descendant -> "//")
         ^ (match test with Tag tag -> tag | Similar tag -> "~" ^ tag | Any -> "*")
         ^ String.concat ""
             (List.map
                (function
                  | Path_expr.Path e -> "[" ^ show e ^ "]"
                  | Contains term -> "[\"" ^ term ^ "\"]")
                predicates))
       t)

let test_parse_predicates () =
  let open Path_expr in
  (match parse "//article[//cite]//author" with
   | Ok
       [ { axis = Descendant; test = Tag "article";
           predicates =
             [ Path [ { axis = Descendant; test = Tag "cite"; predicates = [] } ] ] };
         { axis = Descendant; test = Tag "author"; predicates = [] } ] -> ()
   | Ok other -> Alcotest.failf "unexpected AST: %s" (show other)
   | Error e -> Alcotest.fail e);
  (match parse {|//title["xml"]|} with
   | Ok [ { test = Tag "title"; predicates = [ Contains "xml" ]; _ } ] -> ()
   | _ -> Alcotest.fail "content predicate");
  (* nested and multiple predicates *)
  (match parse "//a[/b[//c]][/d]" with
   | Ok [ { predicates = [ _; _ ]; _ } ] -> ()
   | _ -> Alcotest.fail "//a[/b[//c]][/d]");
  (match parse "//a[" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unterminated bracket accepted");
  (match parse "//a[]" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "empty predicate accepted")

let test_parse_errors () =
  let bad s =
    match Path_expr.parse s with
    | Ok _ -> Alcotest.failf "expected error for %S" s
    | Error _ -> ()
  in
  bad "";
  bad "book";
  bad "//";
  bad "//book/";
  bad "//~*";
  bad "//bo ok"

let test_roundtrip () =
  List.iter
    (fun s -> check_string s s (show (Path_expr.parse_exn s)))
    [ "//book//author"; "/bib/book/title"; "//~article//cite"; "//*";
      "//article[//cite]//author"; "//a[/b[//c]][/d]"; {|//article[//title["xml"]]|} ]

(* {1 Ontology} *)

let test_ontology () =
  let ont = Ontology.publications in
  let sim a b = List.assoc_opt b (Ontology.expand ont a ~threshold:0.0) in
  Alcotest.(check (option (float 1e-9))) "self" (Some 1.0) (sim "book" "book");
  Alcotest.(check (option (float 1e-9))) "sym" (sim "book" "monography")
    (sim "monography" "book");
  Alcotest.(check (option (float 1e-9))) "unrelated" None (sim "book" "year");
  let exp = Ontology.expand ont "book" ~threshold:0.6 in
  check_bool "includes self" true (List.mem_assoc "book" exp);
  check_bool "includes monography" true (List.mem_assoc "monography" exp);
  check_bool "threshold excludes editor" true
    (not (List.mem_assoc "editor" (Ontology.expand ont "author" ~threshold:0.6)))

(* {1 Ranking} *)

let test_ranking () =
  Alcotest.(check (float 1e-9)) "d0" 1.0 (Ranking.distance_score 0);
  Alcotest.(check (float 1e-9)) "d3" 0.25 (Ranking.distance_score 3);
  let ranked =
    Ranking.top_k 2
      [ { Ranking.item = "a"; score = 0.1 }; { item = "b"; score = 0.9 };
        { item = "c"; score = 0.5 } ]
  in
  Alcotest.(check (list string)) "top2" [ "b"; "c" ]
    (List.map (fun r -> r.Ranking.item) ranked)

(* {1 Eval} *)

let make_idx () =
  let c = Dblp.generate (Dblp.default ~n_docs:20) in
  Hopi.create c

let paths_of ms = List.map (fun m -> m.Eval.path) ms

let big_opts = { Eval.default_options with max_results = max_int }

let test_eval_matches_naive () =
  let idx = make_idx () in
  List.iter
    (fun q ->
      let expr = Path_expr.parse_exn q in
      let fast = List.sort compare (paths_of (Eval.eval ~options:big_opts idx expr)) in
      let slow = List.sort compare (paths_of (Eval.eval_naive ~options:big_opts idx expr)) in
      check_bool (q ^ " same matches") true (fast = slow);
      check_bool (q ^ " nonempty") true (fast <> []))
    [ "//article//author"; "//article//cite"; "/article/authors/author"; "//citations//title" ]

let test_eval_cross_document () =
  (* //cite//author requires following an inter-document link *)
  let idx = make_idx () in
  let expr = Path_expr.parse_exn "//cite//author" in
  let ms = Eval.eval ~options:big_opts idx expr in
  check_bool "cross-document matches exist" true (ms <> []);
  let c = Hopi.collection idx in
  List.iter
    (fun m ->
      match m.Eval.path with
      | [ cite; author ] ->
        check_bool "different docs or same" true
          (Hopi.connected idx cite author);
        check_string "cite tag" "cite" (Collection.tag_of c cite);
        check_string "author tag" "author" (Collection.tag_of c author)
      | _ -> Alcotest.fail "binary path expected")
    ms

let test_eval_similarity () =
  let idx = make_idx () in
  (* ti is similar to title (0.8): ~title should not error and must include
     plain title matches *)
  let plain = Eval.eval ~options:big_opts idx (Path_expr.parse_exn "//article//title") in
  let sim = Eval.eval ~options:big_opts idx (Path_expr.parse_exn "//article//~title") in
  check_bool "similar superset" true (List.length sim >= List.length plain)

let test_eval_distance_ranking () =
  let idx = make_idx () in
  let options = { big_opts with use_distance = true } in
  let ms = Eval.eval ~options idx (Path_expr.parse_exn "//article//author") in
  check_bool "nonempty" true (ms <> []);
  (* scores decrease along the ranked list and direct children score higher
     than link-distant matches *)
  let scores = List.map (fun m -> m.Eval.score) ms in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a >= b && decreasing rest
    | _ -> true
  in
  check_bool "ranked" true (decreasing scores);
  check_bool "all scores in (0,1]" true
    (List.for_all (fun s -> s > 0.0 && s <= 1.0) scores)

let test_eval_predicates () =
  let idx = make_idx () in
  let c = Hopi.collection idx in
  (* articles WITH at least one citation vs all articles *)
  let all = Eval.eval ~options:big_opts idx (Path_expr.parse_exn "//article") in
  let citing =
    Eval.eval ~options:big_opts idx (Path_expr.parse_exn "//article[/citations]")
  in
  check_bool "some articles cite" true (citing <> []);
  check_bool "not all articles cite" true (List.length citing < List.length all);
  (* the predicate holds for every returned match *)
  List.iter
    (fun m ->
      match m.Eval.path with
      | [ a ] ->
        let has_citations =
          List.exists
            (fun ch -> Collection.tag_of c ch = "citations")
            (Collection.children c a)
        in
        check_bool "predicate satisfied" true has_citations
      | _ -> Alcotest.fail "unary path")
    citing;
  (* agreement with the naive evaluator, including a descendant predicate
     that crosses document boundaries *)
  List.iter
    (fun q ->
      let expr = Path_expr.parse_exn q in
      let fast = List.sort compare (paths_of (Eval.eval ~options:big_opts idx expr)) in
      let slow =
        List.sort compare (paths_of (Eval.eval_naive ~options:big_opts idx expr))
      in
      check_bool (q ^ " fast = naive") true (fast = slow))
    [ "//article[/citations]//author"; "//article[//cite[//author]]/title";
      "//cite[//year]//author" ]

(* lowercased maximal alphanumeric runs, written independently of
   [Text_index] so the check below does not share its tokenizer *)
let words s =
  String.map
    (function
      | ('a' .. 'z' | '0' .. '9') as ch -> ch
      | 'A' .. 'Z' as ch -> Char.lowercase_ascii ch
      | _ -> ' ')
    s
  |> String.split_on_char ' '
  |> List.filter (( <> ) "")

let test_eval_content_predicate () =
  let idx = make_idx () in
  let c = Hopi.collection idx in
  (* every generated title contains words from a fixed vocabulary; "index"
     is one of them *)
  let with_term =
    Eval.eval ~options:big_opts idx (Path_expr.parse_exn {|//article[//title["index"]]|})
  in
  let all = Eval.eval ~options:big_opts idx (Path_expr.parse_exn "//article") in
  check_bool "some titles mention index" true (with_term <> []);
  check_bool "not all do" true (List.length with_term < List.length all);
  (* verify against the raw text: //title follows links, so the matching
     title may live in a cited document — check all reachable titles *)
  List.iter
    (fun m ->
      match m.Eval.path with
      | [ a ] ->
        let has =
          List.exists
            (fun t ->
              List.exists
                (fun e ->
                  List.mem "index" (words (Collection.text_of c e)))
                (Collection.subtree_elements c t))
            (Hopi_core.Hopi.descendants_with_tag idx a "title")
        in
        check_bool "term really present" true has
      | _ -> Alcotest.fail "unary")
    with_term;
  (* unknown terms match nothing *)
  check_int "no zebra" 0
    (List.length
       (Eval.eval ~options:big_opts idx (Path_expr.parse_exn {|//article["zebra42"]|})))

let test_eval_max_distance () =
  let idx = make_idx () in
  let q = Path_expr.parse_exn "//article//author" in
  (* bound 2 keeps only the article's own authors (root -> authors -> author);
     the unbounded query also reaches authors of cited papers *)
  let near = Eval.eval ~options:{ big_opts with max_distance = Some 2 } idx q in
  let all = Eval.eval ~options:big_opts idx q in
  check_bool "nonempty" true (near <> []);
  check_bool "bounded is a strict subset" true (List.length near < List.length all);
  (* agreement with the naive evaluator under the same bound *)
  let naive =
    Eval.eval_naive ~options:{ big_opts with max_distance = Some 2 } idx q
  in
  check_bool "same as naive" true
    (List.sort compare (paths_of near) = List.sort compare (paths_of naive));
  (* every kept match really is within 2 edges *)
  let d = Hopi_core.Hopi.distance_index idx in
  List.iter
    (fun m ->
      match m.Eval.path with
      | [ a; b ] ->
        check_bool "within bound" true
          (match Hopi_twohop.Cover.dist d a b with
           | Some x -> x <= 2
           | None -> false)
      | _ -> Alcotest.fail "binary path")
    near

let test_eval_max_results () =
  let idx = make_idx () in
  let options = { Eval.default_options with max_results = 3 } in
  let ms = Eval.eval ~options idx (Path_expr.parse_exn "//article//*") in
  check_int "capped" 3 (List.length ms)

let suite =
  [
    ( "query.path_expr",
      [
        Alcotest.test_case "parse" `Quick test_parse_basic;
        Alcotest.test_case "errors" `Quick test_parse_errors;
        Alcotest.test_case "predicates" `Quick test_parse_predicates;
        Alcotest.test_case "roundtrip" `Quick test_roundtrip;
      ] );
    ("query.ontology", [ Alcotest.test_case "similarity" `Quick test_ontology ]);
    ("query.ranking", [ Alcotest.test_case "scores" `Quick test_ranking ]);
    ( "query.eval",
      [
        Alcotest.test_case "matches naive" `Quick test_eval_matches_naive;
        Alcotest.test_case "cross document" `Quick test_eval_cross_document;
        Alcotest.test_case "similarity" `Quick test_eval_similarity;
        Alcotest.test_case "distance ranking" `Quick test_eval_distance_ranking;
        Alcotest.test_case "predicates" `Quick test_eval_predicates;
        Alcotest.test_case "content predicate" `Quick test_eval_content_predicate;
        Alcotest.test_case "max distance" `Quick test_eval_max_distance;
        Alcotest.test_case "max results" `Quick test_eval_max_results;
      ] );
  ]
