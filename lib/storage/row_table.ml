(* Write-once row tables (see the interface for the layout): a heap of
   Label_codec rows over page payloads plus a varint directory of keys,
   row lengths and reachability intervals, read once at open into flat
   int arrays. *)

module Codec = Hopi_twohop.Label_codec
module E = Storage_error

let po = Page.payload_off

let payload = Page.size - po

(* Where a row of [len] bytes starts when the heap is filled up to [p]:
   at [p], unless it fits in a payload but not in what is left of the
   current page — then at the start of the next one. *)
let place p len =
  if len > 0 && len <= payload && (p mod payload) + len > payload then
    ((p / payload) + 1) * payload
  else p

type t = {
  pgr : Pager.t;
  layout : Catalog.rows;
  keys : int array;
  reg : Bytes.t;  (* '\001' at the slots of registered nodes *)
  post : int array;  (* per slot: the reachability interval [low, post] *)
  low : int array;
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

let max_i32 = Int32.to_int Int32.max_int

let writer pgr ~keys ~registered =
  Array.iteri
    (fun i k ->
      if k < 0 || k > max_i32 || (i > 0 && k <= keys.(i - 1)) then
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
    if off.(i + 1) > max_i32 then invalid_arg "Row_table.add_table: table exceeds 2 GiB"
  done;
  w.offs <- off :: w.offs;
  w.counts <- !count :: w.counts

let bad fmt = Printf.ksprintf (fun s -> E.raise_error (Bad_catalog s)) fmt

(* {1 The directory}

   One stream of LEB128 varints over consecutive page payloads; per key:
   [(key - previous key) lsl 1 lor unregistered], the key's row length in
   each table, [post], [post - low].  No field needs more than 35 bits,
   so a varint of more than five bytes is corrupt. *)

let add_varint buf v =
  let v = ref v in
  while !v >= 0x80 do
    Buffer.add_char buf (Char.unsafe_chr ((!v land 0x7f) lor 0x80));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr !v)

let encode_dir ~keys ~reg ~post ~low off =
  let buf = Buffer.create (8 * Array.length keys) in
  let prev = ref 0 in
  Array.iteri
    (fun i k ->
      add_varint buf (((k - !prev) lsl 1) lor (if reg i then 0 else 1));
      prev := k;
      Array.iter (fun off -> add_varint buf (off.(i + 1) - off.(i))) off;
      add_varint buf post.(i);
      add_varint buf (post.(i) - low.(i)))
    keys;
  Buffer.to_bytes buf

(* The directory, decoded and checked: keys and flags, intervals, per-table
   dense offsets, and every row placed by replaying [place] over the
   lengths. *)
let decode_dir pgr (r : Catalog.rows) b =
  let n = r.Catalog.n_keys and n_tables = Array.length r.Catalog.entries in
  let len = Bytes.length b and pos = ref 0 in
  let varint () =
    let v = ref 0 and shift = ref 0 and more = ref true in
    while !more do
      if !pos >= len then bad "directory ends inside a varint";
      if !shift > 28 then bad "directory varint at byte %d is too long" !pos;
      let c = Char.code (Bytes.unsafe_get b !pos) in
      incr pos;
      v := !v lor ((c land 0x7f) lsl !shift);
      shift := !shift + 7;
      more := c >= 0x80
    done;
    !v
  in
  let keys = Array.make n 0 and reg = Bytes.make n '\000' in
  let post = Array.make n 0 and low = Array.make n 0 in
  let off = Array.init n_tables (fun _ -> Array.make (n + 1) 0) in
  for i = 0 to n - 1 do
    let w = varint () in
    let delta = w lsr 1 in
    keys.(i) <- (if i = 0 then delta else keys.(i - 1) + delta);
    if w land 1 = 0 then Bytes.set reg i '\001';
    if i > 0 && delta = 0 then bad "directory keys out of order at slot %d" i;
    if keys.(i) > max_i32 then bad "directory key %d at slot %d exceeds 2^31" keys.(i) i;
    Array.iter
      (fun off ->
        off.(i + 1) <- off.(i) + varint ();
        if off.(i + 1) > max_i32 then bad "row offsets overflow at slot %d" i)
      off;
    post.(i) <- varint ();
    low.(i) <- post.(i) - varint ();
    if post.(i) >= n || low.(i) < 0 then
      bad "key %d: interval [%d, %d] outside [0, %d)" keys.(i) low.(i) post.(i) n
  done;
  if !pos <> len then bad "directory holds %d bytes after its %d keys" (len - !pos) n;
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
  { pgr; layout = r; keys; reg; post; low; off; start }

let dir_pages bytes = (bytes + payload - 1) / payload

let finish w ~post ~low =
  flush w;
  let n = Array.length w.wkeys in
  if Array.length post <> n || Array.length low <> n then
    invalid_arg "Row_table.finish: one interval per key";
  let tables = Array.of_list (List.rev w.offs) in
  let dir =
    encode_dir ~keys:w.wkeys ~reg:(fun i -> w.wreg w.wkeys.(i)) ~post ~low tables
  in
  let dir_bytes = Bytes.length dir in
  let dir_first = Pager.n_pages w.wp in
  for p = 0 to dir_pages dir_bytes - 1 do
    let page = Page.create () in
    let at = p * payload in
    Bytes.blit dir at page po (min payload (dir_bytes - at));
    Pager.write w.wp (Pager.alloc w.wp) page
  done;
  decode_dir w.wp
    { Catalog.heap_first = w.first; heap_pages = (w.pos + payload - 1) / payload;
      heap_bytes = w.pos; dir_first; dir_pages = dir_pages dir_bytes; dir_bytes; n_keys = n;
      entries = Array.of_list (List.rev w.counts) }
    dir

let open_rows pgr (r : Catalog.rows) =
  let bytes = r.Catalog.dir_bytes in
  if r.Catalog.dir_pages <> dir_pages bytes then
    bad "directory of %d pages cannot hold %d bytes" r.Catalog.dir_pages bytes;
  let dir = Bytes.create bytes in
  for p = 0 to r.Catalog.dir_pages - 1 do
    let at = p * payload in
    Bytes.blit (Pager.read pgr (r.Catalog.dir_first + p)) po dir at (min payload (bytes - at))
  done;
  decode_dir pgr r dir

let layout t = t.layout

let n_keys t = Array.length t.keys

let key t i = t.keys.(i)

let slot t v = Hopi_twohop.Cover.slot t.keys v

let registered t i = Bytes.get t.reg i <> '\000'

let rejects t i j = t.post.(j) > t.post.(i) || t.low.(i) > t.low.(j)

let dir_bytes t = t.layout.Catalog.dir_bytes

let entries t table = t.layout.Catalog.entries.(table)

let row_bytes t table =
  let off = t.off.(table) in
  off.(Array.length off - 1)

(* {2 The page memo}

   The last heap page a scan read.  Pooled images are immutable and stay
   valid after eviction, so holding one is safe for as long as the scan
   runs. *)

type memo = { mutable page_no : int; mutable image : Page.t }

let memo () = { page_no = -1; image = Bytes.empty }

(* heap page [no], through the memo *)
let heap_page t m no =
  if m.page_no <> no then begin
    m.image <- Pager.read t.pgr (t.layout.Catalog.heap_first + no);
    m.page_no <- no
  end;
  m.image

(* the bytes of a row longer than what is left of its first page,
   gathered from consecutive heap pages *)
let gather t m s len =
  let b = Bytes.create len in
  let got = ref 0 in
  while !got < len do
    let at = s + !got in
    let n = min (len - !got) (payload - (at mod payload)) in
    Bytes.blit (heap_page t m (at / payload)) (po + (at mod payload)) b !got n;
    got := !got + n
  done;
  b

(* the buffer holding a non-empty row, and where in it the row starts:
   the pooled page image itself when the row fits in one page *)
let locate t m table i len =
  let s = t.start.(table).(i) in
  if (s mod payload) + len <= payload then (heap_page t m (s / payload), po + (s mod payload))
  else (gather t m s len, 0)

let length t table i =
  let off = t.off.(table) in
  off.(i + 1) - off.(i)

let load t m c table i =
  let len = length t table i in
  if len = 0 then Codec.reset c Codec.empty ~pos:0 ~len:0
  else begin
    let b, pos = locate t m table i len in
    Codec.reset c b ~pos ~len
  end

let row t table i =
  let len = length t table i in
  if len = 0 then Codec.empty
  else begin
    let b, pos = locate t (memo ()) table i len in
    Bytes.sub b pos len
  end
