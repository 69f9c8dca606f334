module E = Storage_error

type kind = Cover | Closure

type entry = { root : int; length : int }

type t = { kind : kind; with_dist : bool; trees : entry array }

let magic = 0x484F5049 (* "HOPI" *)

(* version 2: checksummed page headers, catalog gained kind + arity *)
let version = 2

let cover_trees = 5

let closure_trees = 2

let po = Page.payload_off

(* layout from [po]: [+0..3] magic, [+4..7] version, [+8..11] kind,
   [+12..15] with_dist, [+16..19] n_trees, entries of 8 bytes from [+20] *)

let kind_code = function Cover -> 0 | Closure -> 1

let arity = function Cover -> cover_trees | Closure -> closure_trees

let max_trees = (Page.size - po - 20) / 8

let reserve who pager =
  if Pager.n_pages pager <> 0 then invalid_arg (who ^ ": the pager must be fresh");
  ignore (Pager.alloc pager)

let write pager t =
  if Array.length t.trees <> arity t.kind then invalid_arg "Catalog.write: arity";
  let page = Page.create () in
  Page.set_i32 page (po + 0) magic;
  Page.set_i32 page (po + 4) version;
  Page.set_i32 page (po + 8) (kind_code t.kind);
  Page.set_i32 page (po + 12) (if t.with_dist then 1 else 0);
  Page.set_i32 page (po + 16) (Array.length t.trees);
  Array.iteri
    (fun i e ->
      let off = po + 20 + (i * 8) in
      Page.set_i32 page off e.root;
      Page.set_i32 page (off + 4) e.length)
    t.trees;
  Pager.write pager 0 page

let read pager =
  if Pager.n_pages pager < 1 then
    E.raise_error (Truncated "store has no catalog page");
  let page = Pager.read pager 0 in
  let got_magic = Page.get_i32 page (po + 0) in
  if got_magic <> magic then E.raise_error (Bad_magic { got = got_magic; expected = magic });
  let got_version = Page.get_i32 page (po + 4) in
  if got_version <> version then
    E.raise_error (Bad_version { got = got_version; expected = version });
  let kind =
    match Page.get_i32 page (po + 8) with
    | 0 -> Cover
    | 1 -> Closure
    | k -> E.raise_error (Bad_catalog (Printf.sprintf "unknown store kind %d" k))
  in
  let with_dist = Page.get_i32 page (po + 12) <> 0 in
  let n_trees = Page.get_i32 page (po + 16) in
  if n_trees < 1 || n_trees > max_trees then
    E.raise_error (Bad_catalog (Printf.sprintf "implausible tree count %d" n_trees));
  if n_trees <> arity kind then
    E.raise_error
      (Bad_catalog
         (Printf.sprintf "tree count %d does not match the store kind (want %d)"
            n_trees (arity kind)));
  let n_pages = Pager.n_pages pager in
  let trees =
    Array.init n_trees (fun i ->
        let off = po + 20 + (i * 8) in
        let e = { root = Page.get_i32 page off; length = Page.get_i32 page (off + 4) } in
        if e.root < 0 || e.root >= n_pages then
          E.raise_error
            (Bad_catalog (Printf.sprintf "tree %d root %d outside [0,%d)" i e.root n_pages));
        if e.length < 0 then
          E.raise_error (Bad_catalog (Printf.sprintf "tree %d has negative length" i));
        e)
  in
  { kind; with_dist; trees }

let expect kind t =
  if t.kind <> kind then
    E.raise_error
      (Bad_catalog
         (Printf.sprintf "this is a %s store, not a %s store"
            (match t.kind with Cover -> "cover" | Closure -> "closure")
            (match kind with Cover -> "cover" | Closure -> "closure")))
