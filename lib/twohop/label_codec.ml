(* Delta-encoded label sets (see the interface for the format contract).

   Encoding: rows sorted by (center, dist); per row a varint center delta
   against the previous row's center, then a varint distance.  Probes
   decode streamwise — no intermediate arrays — and exploit the sort
   order: runs of one center are contiguous, and the first row of a run
   carries that center's minimum distance. *)

type t = bytes

let empty = Bytes.create 0

(* {1 Varints} *)

(* LEB128: 7 payload bits per byte, little-endian, high bit = continue *)

let add_varint buf v =
  let v = ref v in
  while !v >= 0x80 do
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (!v land 0x7f)));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr !v)

(* {1 Encoding} *)

module Enc = struct
  type e = {
    buf : Buffer.t;
    mutable prev_center : int;
    mutable prev_dist : int;
    mutable rows : int;
  }

  let create () = { buf = Buffer.create 32; prev_center = 0; prev_dist = 0; rows = 0 }

  let row e ~center ~dist =
    if center < 0 || dist < 0 then invalid_arg "Label_codec.Enc.row: negative field";
    if e.rows > 0
       && (center < e.prev_center || (center = e.prev_center && dist < e.prev_dist))
    then invalid_arg "Label_codec.Enc.row: rows not sorted by (center, dist)";
    add_varint e.buf (center - e.prev_center);
    add_varint e.buf dist;
    e.prev_center <- center;
    e.prev_dist <- dist;
    e.rows <- e.rows + 1

  let finish e = Buffer.to_bytes e.buf
end

let encode_pairs rows =
  let e = Enc.create () in
  Array.iter (fun (center, dist) -> Enc.row e ~center ~dist) rows;
  Enc.finish e

(* {1 Decoding cursors}

   A cursor walks the rows of the byte range [pos, stop) of a buffer.
   Nothing on the decode path allocates: the varint reader and the run
   skips are plain loops over mutable fields, so a probe costs one cursor
   record and a scan over a reused cursor costs nothing. *)

type cursor = {
  mutable b : bytes;
  mutable stop : int;
  mutable pos : int;
  mutable center : int;
  mutable dist : int;
}

let cursor () = { b = empty; stop = 0; pos = 0; center = 0; dist = 0 }

let reset c b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then invalid_arg "Label_codec.reset";
  c.b <- b;
  c.pos <- pos;
  c.stop <- pos + len;
  c.center <- 0;
  c.dist <- 0

let cur b = { b; stop = Bytes.length b; pos = 0; center = 0; dist = 0 }

let at_end c = c.pos >= c.stop

let truncated () = invalid_arg "Label_codec: truncated varint"

let varint c =
  if c.pos >= c.stop then truncated ();
  let k = Char.code (Bytes.unsafe_get c.b c.pos) in
  c.pos <- c.pos + 1;
  if k < 0x80 then k
  else begin
    let v = ref (k land 0x7f) and shift = ref 7 and more = ref true in
    while !more do
      if c.pos >= c.stop then truncated ();
      let k = Char.code (Bytes.unsafe_get c.b c.pos) in
      c.pos <- c.pos + 1;
      v := !v lor ((k land 0x7f) lsl !shift);
      shift := !shift + 7;
      more := k land 0x80 <> 0
    done;
    !v
  end

(* decode the row at the cursor into [center]/[dist]; most rows are two
   one-byte varints, read as one 16-bit word without a call *)
let next c =
  let p = c.pos in
  let w = if p + 1 < c.stop then Bytes.get_uint16_le c.b p else 0x80 in
  if w land 0x8080 = 0 then begin
    c.center <- c.center + (w land 0x7f);
    c.dist <- w lsr 8;
    c.pos <- p + 2
  end
  else begin
    c.center <- c.center + varint c;
    c.dist <- varint c
  end

let advance c =
  if at_end c then false
  else begin
    next c;
    true
  end

let center c = c.center

let dist c = c.dist

(* The row loop of [next] with the distance skipped, plus the mark test:
   one pass, no call per row but [f] on a center seen first.  A row of
   two one-byte varints is one 16-bit load; anything else goes through
   the varint reader. *)
let iter_unmarked c seen f =
  let b = c.b and stop = c.stop in
  let pos = ref c.pos and center = ref c.center in
  while !pos < stop do
    let p = !pos in
    let w = if p + 1 < stop then Bytes.get_uint16_le b p else 0x80 in
    if w land 0x8080 = 0 then begin
      center := !center + (w land 0x7f);
      pos := p + 2
    end
    else begin
      c.pos <- p;
      center := !center + varint c;
      ignore (varint c);
      pos := c.pos
    end;
    let s = !center in
    if Bytes.get seen s = '\000' then begin
      Bytes.unsafe_set seen s '\001';
      f s
    end
  done;
  c.pos <- stop;
  c.center <- !center

(* advance to the first row of the next (strictly greater) center;
   false when the current run was the last *)
let next_center c =
  let here = c.center in
  while (not (at_end c)) && c.center = here do
    next c
  done;
  c.center <> here

(* {1 Probes} *)

let iter b f =
  let c = cur b in
  while not (at_end c) do
    next c;
    f ~center:c.center ~dist:c.dist
  done

let iter_centers b f =
  let c = cur b in
  if advance c then begin
    f c.center;
    while next_center c do
      f c.center
    done
  end

let n_rows b =
  let c = cur b and n = ref 0 in
  while not (at_end c) do
    next c;
    incr n
  done;
  !n

let to_array b =
  let n = n_rows b in
  let arr = Array.make (2 * n) 0 in
  let c = cur b and i = ref 0 in
  while not (at_end c) do
    next c;
    arr.(!i) <- c.center;
    arr.(!i + 1) <- c.dist;
    i := !i + 2
  done;
  arr

(* min distance of [center]'s run, or -1: rows are sorted, so the first
   row at the center carries the minimum and the scan bails as soon as
   the centers pass it *)
let find_min_dist b center =
  let c = cur b in
  let found = ref (-1) and go = ref true in
  while !go && not (at_end c) do
    next c;
    if c.center >= center then begin
      go := false;
      if c.center = center then found := c.dist
    end
  done;
  !found

let mem b center = find_min_dist b center >= 0

let intersects a b =
  let ca = cur a and cb = cur b in
  let live = ref (advance ca && advance cb) and hit = ref false in
  while !live do
    if ca.center = cb.center then begin
      hit := true;
      live := false
    end
    else if ca.center < cb.center then live := next_center ca
    else live := next_center cb
  done;
  !hit

(* min over common centers of (min dist in a's run + min dist in b's run) *)
let merge_min a b =
  let ca = cur a and cb = cur b in
  let live = ref (advance ca && advance cb) and best = ref (-1) in
  while !live do
    if ca.center = cb.center then begin
      let d = ca.dist + cb.dist in
      if !best < 0 || d < !best then best := d;
      live := next_center ca && next_center cb
    end
    else if ca.center < cb.center then live := next_center ca
    else live := next_center cb
  done;
  !best

let size_bytes b = Bytes.length b
