(* Shared helpers of the benchmark program: clocks, corpus I/O, order
   statistics and a small JSON writer (the switch has no JSON library). *)

module Collection = Hopi_collection.Collection

let now () = Int64.to_float (Hopi_util.Timer.now_ns ()) /. 1e9

(* {1 Corpus} *)

let dblp_config ~seed ~docs =
  { (Hopi_workload.Dblp_gen.default ~n_docs:docs) with Hopi_workload.Dblp_gen.seed }

let write_corpus ~seed ~docs dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let cfg = dblp_config ~seed ~docs in
  for i = 0 to docs - 1 do
    let oc = open_out_bin (Filename.concat dir (Hopi_workload.Dblp_gen.doc_name i)) in
    output_string oc (Hopi_workload.Dblp_gen.document_xml cfg i);
    close_out oc
  done

(* Same file order and parser as [hopi build], so element ids agree with
   the ids the served store uses. *)
let load_dir dir =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".xml")
    |> List.sort compare
  in
  let c = Collection.create () in
  List.iter
    (fun f ->
      let ic = open_in_bin (Filename.concat dir f) in
      let src = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Collection.add_document_xml c ~name:f src with
      | Ok _ -> ()
      | Error e -> failwith (Format.asprintf "%s: %a" f Hopi_xml.Xml_parser.pp_error e))
    files;
  c

(* {1 Order statistics} *)

(* Nearest-rank percentile of an ascending array. *)
let pct sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let sorted_of xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs = pct (sorted_of xs) 0.5

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* The tail percentile actually reported for [n] samples: [q] when at
   least ten samples lie beyond it, else the highest one that has ten. *)
let tail_q ~n q =
  if n <= 10 then 0.5
  else if float_of_int n *. (1.0 -. q) >= 10.0 then q
  else 1.0 -. (10.0 /. float_of_int n)

(* {1 JSON} *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Arr of json list
  | Obj of (string * json) list

let rec emit b = function
  | Num f ->
    if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.9g" f)
    else Buffer.add_string b "null"
  | Int n -> Buffer.add_string b (string_of_int n)
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Str s ->
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  | Arr xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        emit b x)
      xs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        emit b (Str k);
        Buffer.add_char b ':';
        emit b v)
      kvs;
    Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 1024 in
  emit b j;
  Buffer.contents b

(* {1 Metrics registry access} *)

let counter name =
  match Hopi_obs.Registry.find name with
  | Some (Hopi_obs.Registry.Counter c) -> Hopi_obs.Counter.get c
  | _ -> 0

(* Run [f] and return its result, its wall time in seconds and the
   deltas of the named counters across it. *)
let with_counters names f =
  let before = List.map counter names in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  let deltas = List.map2 (fun n b -> (n, counter n - b)) names before in
  (r, dt, deltas)
