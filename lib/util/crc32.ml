(* CRC-32 with the reflected IEEE polynomial, the same checksum the
   zip/png family uses, computed slicing-by-16: sixteen 256-entry tables
   fold sixteen input bytes per step, read as four little-endian 32-bit
   words, and a byte-at-a-time loop over the first table finishes the
   tail.  The running register is a native [int] holding the 32-bit state
   pre-inverted; [int32] appears only at the interface. *)

let poly = 0xEDB88320

let slices = 16

(* [tables.(k * 256 + n)] is the register after feeding byte [n] followed
   by [k] zero bytes into a zero register: table 0 is the classic
   byte-at-a-time table, and table [k] pushes a byte [k] positions further
   along.  Built eagerly so concurrent first use from several domains
   needs no lazy initialisation. *)
let tables =
  let t = Array.make (slices * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then poly lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to slices - 1 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let mask32 = 0xFFFF_FFFF

(* compiler primitives: an unchecked 32-bit load (the loop bounds keep it
   in range) and a byte swap for big-endian hosts *)
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"

external bswap32 : int32 -> int32 = "%bswap_int32"

let[@inline] word buf i =
  let w = get32u buf i in
  Int32.to_int (if Sys.big_endian then bswap32 w else w)

(* table [k] at the low byte of [x] *)
let[@inline] tb k x = Array.unsafe_get tables ((k * 256) + (x land 0xFF))

(* the register [c] after [len] bytes from [pos] *)
let run c buf pos len =
  let c = ref c and i = ref pos in
  let stop16 = pos + (len land lnot 15) in
  while !i < stop16 do
    let p = !i in
    let a = !c lxor word buf p and b = word buf (p + 4) in
    let d = word buf (p + 8) and e = word buf (p + 12) in
    c :=
      tb 15 a lxor tb 14 (a lsr 8) lxor tb 13 (a lsr 16) lxor tb 12 (a lsr 24)
      lxor tb 11 b lxor tb 10 (b lsr 8) lxor tb 9 (b lsr 16) lxor tb 8 (b lsr 24)
      lxor tb 7 d lxor tb 6 (d lsr 8) lxor tb 5 (d lsr 16) lxor tb 4 (d lsr 24)
      lxor tb 3 e lxor tb 2 (e lsr 8) lxor tb 1 (e lsr 16) lxor tb 0 (e lsr 24);
    i := p + 16
  done;
  let stop = pos + len in
  while !i < stop do
    let x = !c in
    c := tb 0 (x lxor Char.code (Bytes.unsafe_get buf !i)) lxor (x lsr 8);
    incr i
  done;
  !c

let update crc buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then invalid_arg "Crc32.update";
  let c = run (Int32.to_int crc land mask32 lxor mask32) buf pos len in
  Int32.of_int (c lxor mask32)

let digest buf ~pos ~len = update 0l buf ~pos ~len
