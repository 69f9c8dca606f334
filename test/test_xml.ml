(* Tests for hopi_xml: parser, printer, link extraction. *)

open Hopi_xml

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let parse = Xml_parser.parse_string_exn

(* what the parse produced: child elements, element count, height and the
   concatenated text *)
let elements (t : Xml_tree.t) =
  List.filter_map (function Xml_tree.Element e -> Some e | Text _ -> None) t.children

let rec count t = List.fold_left (fun n e -> n + count e) 1 (elements t)

let rec depth t = 1 + List.fold_left (fun m e -> max m (depth e)) 0 (elements t)

let rec text (t : Xml_tree.t) =
  String.concat "" (List.map (function Xml_tree.Text s -> s | Element e -> text e) t.children)

(* {1 Parser} *)

let test_parse_simple () =
  let t = parse "<a><b/><c>text</c></a>" in
  check_string "root tag" "a" t.Xml_tree.tag;
  check_int "children" 2 (List.length (elements t));
  check_int "elements" 3 (count t)

let test_parse_attributes () =
  let t = parse {|<a x="1" y='two' z="a&amp;b"/>|} in
  Alcotest.(check (option string)) "x" (Some "1") (Xml_tree.attr t "x");
  Alcotest.(check (option string)) "y" (Some "two") (Xml_tree.attr t "y");
  Alcotest.(check (option string)) "z" (Some "a&b") (Xml_tree.attr t "z");
  Alcotest.(check (option string)) "missing" None (Xml_tree.attr t "w")

let test_parse_entities () =
  let t = parse "<a>&lt;&gt;&amp;&quot;&apos;&#65;&#x42;</a>" in
  check_string "decoded" "<>&\"'AB" (text t)

let test_parse_prolog_comment_cdata () =
  let src =
    {|<?xml version="1.0"?>
<!DOCTYPE a [ <!ELEMENT a ANY> ]>
<!-- a comment -->
<a><!-- inner --><![CDATA[<raw>&stuff;]]></a>|}
  in
  let t = parse src in
  check_string "cdata raw" "<raw>&stuff;" (text t)

let test_parse_nested_same_tag () =
  let t = parse "<a><a><a/></a></a>" in
  check_int "depth" 3 (depth t)

let expect_error src =
  match Xml_parser.parse_string src with
  | Ok _ -> Alcotest.failf "expected parse error for %S" src
  | Error _ -> ()

let test_parse_errors () =
  expect_error "";
  expect_error "<a>";
  expect_error "<a></b>";
  expect_error "<a><b></a></b>";
  expect_error "no markup";
  expect_error "<a/><b/>";
  expect_error "<a x=1/>";
  expect_error "<a>&unknown;</a>";
  expect_error "<a>&#xZZ;</a>";
  expect_error "<1tag/>"

let test_parse_error_position () =
  match Xml_parser.parse_string "<a>\n<b></c>\n</a>" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error e ->
    check_int "line" 2 e.Xml_parser.line;
    check_bool "message mentions tags" true
      (String.length e.Xml_parser.msg > 0)

let test_roundtrip () =
  let src = {|<article id="a1"><title>On &amp; Off</title><sec n="1"><p>hi</p></sec></article>|} in
  let t = parse src in
  let printed = Xml_tree.to_string t in
  let t2 = parse printed in
  check_bool "stable" true (t = t2);
  check_string "idempotent print" printed (Xml_tree.to_string t2)

let prop_generated_roundtrip =
  (* generate random trees, print, reparse, compare *)
  let gen_tree =
    QCheck2.Gen.(
      sized_size (int_bound 5)
      @@ fix (fun self n ->
             let tag = oneofl [ "a"; "b"; "sec"; "p" ] in
             let attr = pair (oneofl [ "id"; "x" ]) (oneofl [ "v"; "w&<>\"" ]) in
             let attrs = map (fun l -> List.sort_uniq (fun (a,_) (b,_) -> compare a b) l)
                 (list_size (int_bound 2) attr) in
             if n = 0 then
               map2 (fun tag attrs -> { Xml_tree.tag; attrs; children = [] }) tag attrs
             else
               map3
                 (fun tag attrs cs ->
                   { Xml_tree.tag; attrs; children = List.map (fun c -> Xml_tree.Element c) cs })
                 tag attrs
                 (list_size (int_bound 3) (self (n / 2)))))
  in
  QCheck2.Test.make ~name:"print/parse roundtrip" ~count:200 gen_tree (fun t ->
      parse (Xml_tree.to_string t) = t)

let prop_parser_never_crashes =
  (* arbitrary bytes must yield Ok or Error, never an exception *)
  QCheck2.Test.make ~name:"parser is total on arbitrary input" ~count:500
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_bound 80))
    (fun s ->
      match Xml_parser.parse_string s with
      | Ok _ | Error _ -> true)

let prop_parser_never_crashes_markup =
  (* markup-flavoured fuzz: higher chance of hitting parser branches *)
  QCheck2.Test.make ~name:"parser is total on markup soup" ~count:500
    QCheck2.Gen.(
      map (String.concat "")
        (list_size (int_bound 20)
           (oneofl
              [ "<"; ">"; "</"; "/>"; "a"; "b"; "="; "\""; "'"; "&"; ";"; "&amp;";
                "<!--"; "-->"; "<![CDATA["; "]]>"; "<?"; "?>"; " "; "<a"; "</a>";
                "id"; "#x"; "&#"; "<!DOCTYPE"; "["; "]" ])))
    (fun s ->
      match Xml_parser.parse_string s with
      | Ok _ | Error _ -> true)

(* {1 Xlink} *)

let test_parse_href () =
  let open Xlink in
  let href h = targets_of_element (parse (Printf.sprintf {|<x href="%s"/>|} h)) in
  Alcotest.(check bool) "doc+frag" true
    (href "d.xml#e5" = [ { doc = Some "d.xml"; fragment = "e5" } ]);
  Alcotest.(check bool) "frag only" true
    (href "#e5" = [ { doc = None; fragment = "e5" } ]);
  Alcotest.(check bool) "doc only" true
    (href "d.xml" = [ { doc = Some "d.xml"; fragment = "" } ]);
  Alcotest.(check bool) "empty" true (href "" = [ { doc = None; fragment = "" } ])

let test_targets_of_element () =
  let t = parse {|<cite xlink:href="p2.xml#e1" idref="a" idrefs="b c"/>|} in
  let ts = Xlink.targets_of_element t in
  check_int "count" 4 (List.length ts);
  check_bool "xlink first" true
    (List.hd ts = { Xlink.doc = Some "p2.xml"; fragment = "e1" })

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "xml.parser",
      [
        Alcotest.test_case "simple" `Quick test_parse_simple;
        Alcotest.test_case "attributes" `Quick test_parse_attributes;
        Alcotest.test_case "entities" `Quick test_parse_entities;
        Alcotest.test_case "prolog/comment/cdata" `Quick test_parse_prolog_comment_cdata;
        Alcotest.test_case "nested same tag" `Quick test_parse_nested_same_tag;
        Alcotest.test_case "errors" `Quick test_parse_errors;
        Alcotest.test_case "error position" `Quick test_parse_error_position;
        Alcotest.test_case "roundtrip" `Quick test_roundtrip;
      ]
      @ qsuite
          [
            prop_generated_roundtrip;
            prop_parser_never_crashes;
            prop_parser_never_crashes_markup;
          ] );
    ( "xml.xlink",
      [
        Alcotest.test_case "parse_href" `Quick test_parse_href;
        Alcotest.test_case "targets" `Quick test_targets_of_element;
      ] );
  ]
