(* Write-once row tables (see the interface for the layout): a heap of
   Label_codec rows over page payloads plus a directory of keys and dense
   per-table row offsets, read once at open into flat int arrays. *)

module Codec = Hopi_twohop.Label_codec
module E = Storage_error

let po = Page.payload_off

let payload = Page.size - po

let words_per_page = payload / 4

(* Where a row of [len] bytes starts when the heap is filled up to [p]:
   at [p], unless it fits in a payload but not in what is left of the
   current page — then at the start of the next one. *)
let place p len =
  if len > 0 && len <= payload && (p mod payload) + len > payload then
    ((p / payload) + 1) * payload
  else p

let key_word ~registered k = if registered then k else lnot k

type t = {
  pgr : Pager.t;
  layout : Catalog.rows;
  keys : int array;
  reg : Bytes.t;  (* '\001' at the slots of registered nodes *)
  off : int array array;  (* per table: dense row offsets, n_keys + 1 *)
  start : int array array;  (* per table: heap offset of each row *)
}

(* {1 Writing} *)

type writer = {
  wp : Pager.t;
  wkeys : int array;
  wreg : int -> bool;
  first : int;  (* heap page 0 *)
  mutable page : Page.t;
  mutable page_no : int;  (* heap page held in [page]; -1 before any *)
  mutable pos : int;  (* heap bytes placed so far *)
  mutable offs : int array list;  (* tables added, most recent first *)
  mutable counts : int list;
}

let writer pgr ~keys ~registered =
  Array.iteri
    (fun i k ->
      if k < 0 || k > Int32.to_int Int32.max_int || (i > 0 && k <= keys.(i - 1)) then
        invalid_arg "Row_table.writer: keys must ascend strictly within [0, 2^31)")
    keys;
  { wp = pgr; wkeys = keys; wreg = registered; first = Pager.n_pages pgr;
    page = Page.create (); page_no = -1; pos = 0; offs = []; counts = [] }

let flush w = if w.page_no >= 0 then Pager.write w.wp (w.first + w.page_no) w.page

(* copy [b] into the heap from [w.pos]; heap pages are allocated in
   order as the bytes reach them, so their ids are consecutive *)
let append w b =
  let len = Bytes.length b in
  w.pos <- place w.pos len;
  let src = ref 0 in
  while !src < len do
    let no = w.pos / payload and at = w.pos mod payload in
    if no <> w.page_no then begin
      flush w;
      let id = Pager.alloc w.wp in
      assert (id = w.first + no);
      w.page <- Page.create ();
      w.page_no <- no
    end;
    let n = min (len - !src) (payload - at) in
    Bytes.blit b !src w.page (po + at) n;
    src := !src + n;
    w.pos <- w.pos + n
  done

let add_table w row =
  let n = Array.length w.wkeys in
  let off = Array.make (n + 1) 0 and count = ref 0 in
  for i = 0 to n - 1 do
    let b = row i in
    append w b;
    count := !count + Codec.n_rows b;
    off.(i + 1) <- off.(i) + Bytes.length b;
    if off.(i + 1) > Int32.to_int Int32.max_int then
      invalid_arg "Row_table.add_table: table exceeds 2 GiB"
  done;
  w.offs <- off :: w.offs;
  w.counts <- !count :: w.counts

let bad fmt = Printf.ksprintf (fun s -> E.raise_error (Bad_catalog s)) fmt

(* The directory, decoded and checked: keys and flags, per-table dense
   offsets, and every row placed by replaying [place] over the lengths. *)
let of_words pgr (r : Catalog.rows) words =
  let n = r.Catalog.n_keys and n_tables = Array.length r.Catalog.entries in
  let keys = Array.make n 0 and reg = Bytes.make n '\000' in
  for i = 0 to n - 1 do
    let w = words.(i) in
    keys.(i) <- (if w < 0 then lnot w else w);
    if w >= 0 then Bytes.set reg i '\001';
    if i > 0 && keys.(i) <= keys.(i - 1) then bad "directory keys out of order at slot %d" i
  done;
  let off =
    Array.init n_tables (fun t ->
        let off = Array.sub words (n + (t * (n + 1))) (n + 1) in
        if off.(0) <> 0 then bad "table %d: first row offset %d, not 0" t off.(0);
        for i = 1 to n do
          if off.(i) < off.(i - 1) then bad "table %d: row offsets descend at slot %d" t i
        done;
        off)
  in
  let p = ref 0 in
  let start =
    Array.map
      (fun off ->
        Array.init n (fun i ->
            let s = place !p (off.(i + 1) - off.(i)) in
            p := s + off.(i + 1) - off.(i);
            s))
      off
  in
  if !p <> r.Catalog.heap_bytes then
    bad "rows end at heap byte %d, the heap at %d" !p r.Catalog.heap_bytes;
  { pgr; layout = r; keys; reg; off; start }

let n_words ~n_keys ~n_tables = n_keys + (n_tables * (n_keys + 1))

let dir_pages n_words = (n_words + words_per_page - 1) / words_per_page

let finish w =
  flush w;
  let n = Array.length w.wkeys in
  let tables = List.rev w.offs in
  let words = Array.make (n_words ~n_keys:n ~n_tables:(List.length tables)) 0 in
  Array.iteri (fun i k -> words.(i) <- key_word ~registered:(w.wreg k) k) w.wkeys;
  List.iteri (fun t off -> Array.blit off 0 words (n + (t * (n + 1))) (n + 1)) tables;
  let dir_first = Pager.n_pages w.wp in
  for p = 0 to dir_pages (Array.length words) - 1 do
    let page = Page.create () in
    for j = 0 to min words_per_page (Array.length words - (p * words_per_page)) - 1 do
      Page.set_i32 page (po + (4 * j)) words.((p * words_per_page) + j)
    done;
    Pager.write w.wp (Pager.alloc w.wp) page
  done;
  of_words w.wp
    { Catalog.heap_first = w.first; heap_pages = (w.pos + payload - 1) / payload;
      heap_bytes = w.pos; dir_first; dir_pages = dir_pages (Array.length words); n_keys = n;
      entries = Array.of_list (List.rev w.counts) }
    words

let open_rows pgr (r : Catalog.rows) =
  let n_words = n_words ~n_keys:r.Catalog.n_keys ~n_tables:(Array.length r.Catalog.entries) in
  if r.Catalog.dir_pages <> dir_pages n_words then
    bad "directory of %d pages cannot hold %d keys" r.Catalog.dir_pages r.Catalog.n_keys;
  let page = ref Bytes.empty and page_no = ref (-1) in
  of_words pgr r
    (Array.init n_words (fun i ->
         if i / words_per_page <> !page_no then begin
           page_no := i / words_per_page;
           page := Pager.read pgr (r.Catalog.dir_first + !page_no)
         end;
         Page.get_i32 !page (po + (4 * (i mod words_per_page)))))

let layout t = t.layout

let n_keys t = Array.length t.keys

let key t i = t.keys.(i)

let search keys v =
  let n = Array.length keys in
  if n = 0 then -1
  else if Array.unsafe_get keys (n - 1) - Array.unsafe_get keys 0 = n - 1 then begin
    let i = v - Array.unsafe_get keys 0 in
    if i >= 0 && i < n then i else -1
  end
  else begin
    let lo = ref 0 and hi = ref (n - 1) and found = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) lsr 1 in
      let k = Array.unsafe_get keys mid in
      if k = v then begin
        found := mid;
        lo := !hi + 1
      end
      else if k < v then lo := mid + 1
      else hi := mid - 1
    done;
    !found
  end

let slot t v = search t.keys v

let registered t i = Bytes.get t.reg i <> '\000'

let entries t table = t.layout.Catalog.entries.(table)

let row_bytes t table =
  let off = t.off.(table) in
  off.(Array.length off - 1)

(* the bytes of a row longer than what is left of its first page,
   gathered from consecutive heap pages *)
let gather t s len =
  let b = Bytes.create len in
  let got = ref 0 in
  while !got < len do
    let at = s + !got in
    let n = min (len - !got) (payload - (at mod payload)) in
    Bytes.blit (Pager.read t.pgr (t.layout.Catalog.heap_first + (at / payload))) (po + (at mod payload)) b !got n;
    got := !got + n
  done;
  b

(* the buffer holding a non-empty row, and where in it the row starts:
   the pooled page image itself when the row fits in one page *)
let locate t table i len =
  let s = t.start.(table).(i) in
  if (s mod payload) + len <= payload then
    (Pager.read t.pgr (t.layout.Catalog.heap_first + (s / payload)), po + (s mod payload))
  else (gather t s len, 0)

let length t table i =
  let off = t.off.(table) in
  off.(i + 1) - off.(i)

let load t c table i =
  let len = length t table i in
  if len = 0 then Codec.reset c Codec.empty ~pos:0 ~len:0
  else begin
    let b, pos = locate t table i len in
    Codec.reset c b ~pos ~len
  end

let row t table i =
  let len = length t table i in
  if len = 0 then Codec.empty
  else begin
    let b, pos = locate t table i len in
    Bytes.sub b pos len
  end
