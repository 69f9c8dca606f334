module E = Storage_error

type rows = {
  heap_first : int;
  heap_pages : int;
  heap_bytes : int;
  dir_first : int;
  dir_pages : int;
  dir_bytes : int;
  n_keys : int;
  entries : int array;
}

type t = { with_dist : bool; rows : rows }

let magic = 0x484F5049 (* "HOPI" *)

(* version 2: checksummed page headers, catalog gained kind + arity;
   version 3: cover stores are row tables (heap + directory);
   version 4: the directory is a varint stream holding a reachability
   interval per key.  A file of any other version raises
   [Storage_error (Bad_version _)]. *)
let version = 4

let cover_tables = 4

let po = Page.payload_off

(* layout from [po]: [+0..3] magic, [+4..7] version, [+8..11] kind,
   [+12..15] with_dist, [+16] heap first page, [+20] heap pages, [+24]
   heap bytes, [+28] directory first page, [+32] directory pages, [+36]
   directory bytes, [+40] keys, [+44] table count, entry counts of 4
   bytes from [+48].  The kind word is always 0, a cover store; a
   materialised closure, once kind 1, is stored as a cover too. *)

let reserve who pager =
  if Pager.n_pages pager <> 0 then invalid_arg (who ^ ": the pager must be fresh");
  ignore (Pager.alloc pager)

let write pager { with_dist; rows = r } =
  if Array.length r.entries <> cover_tables then invalid_arg "Catalog.write: arity";
  let page = Page.create () in
  let set off v = Page.set_i32 page (po + off) v in
  set 0 magic;
  set 4 version;
  set 8 0;
  set 12 (if with_dist then 1 else 0);
  List.iteri (fun i v -> set (16 + (4 * i)) v)
    [ r.heap_first; r.heap_pages; r.heap_bytes; r.dir_first; r.dir_pages; r.dir_bytes;
      r.n_keys; cover_tables ];
  Array.iteri (fun i n -> set (48 + (4 * i)) n) r.entries;
  Pager.write pager 0 page

let bad fmt = Printf.ksprintf (fun s -> E.raise_error (Bad_catalog s)) fmt

let read pager =
  if Pager.n_pages pager < 1 then
    E.raise_error (Truncated "store has no catalog page");
  let page = Pager.read pager 0 in
  let get off = Page.get_i32 page (po + off) in
  let got_magic = get 0 in
  if got_magic <> magic then E.raise_error (Bad_magic { got = got_magic; expected = magic });
  let got_version = get 4 in
  if got_version <> version then
    E.raise_error (Bad_version { got = got_version; expected = version });
  let n_pages = Pager.n_pages pager in
  let extent what first pages =
    if first < 1 || pages < 0 || first + pages > n_pages then
      bad "%s pages [%d, %d) outside [1,%d)" what first (first + pages) n_pages
  in
  (match get 8 with 0 -> () | k -> bad "unknown store kind %d" k);
  let n_tables = get 44 in
  if n_tables <> cover_tables then
    bad "table count %d does not match a cover store (want %d)" n_tables cover_tables;
  let rows =
    { heap_first = get 16; heap_pages = get 20; heap_bytes = get 24; dir_first = get 28;
      dir_pages = get 32; dir_bytes = get 36; n_keys = get 40;
      entries = Array.init cover_tables (fun i -> get (48 + (4 * i))) }
  in
  extent "heap" rows.heap_first rows.heap_pages;
  extent "directory" rows.dir_first rows.dir_pages;
  if rows.heap_bytes < 0 || rows.heap_bytes > rows.heap_pages * (Page.size - po) then
    bad "heap of %d bytes does not fit its %d pages" rows.heap_bytes rows.heap_pages;
  if rows.dir_bytes < 0 || rows.dir_bytes > rows.dir_pages * (Page.size - po) then
    bad "directory of %d bytes does not fit its %d pages" rows.dir_bytes rows.dir_pages;
  if rows.n_keys < 0 then bad "negative key count";
  Array.iteri (fun i n -> if n < 0 then bad "table %d has a negative entry count" i) rows.entries;
  { with_dist = get 12 <> 0; rows }
