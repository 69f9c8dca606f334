(* CRC-32 with the reflected IEEE polynomial, the same checksum the
   zip/png family uses, computed slicing-by-8: eight 256-entry tables fold
   eight input bytes per step, and a byte-at-a-time loop over the first
   table finishes the tail.  The running state is a native [int] holding
   the 32-bit register pre-inverted, so [update] composes and [finish]
   applies the final complement; [int32] appears only at the interface. *)

let poly = 0xEDB88320

(* [tables.(k * 256 + n)] is the register after feeding byte [n] followed
   by [k] zero bytes into a zero register: table 0 is the classic
   byte-at-a-time table, and table [k] pushes a byte [k] positions further
   along.  Built eagerly so concurrent first use from several domains
   needs no lazy initialisation. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then poly lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let mask32 = 0xFFFF_FFFF

let init = 0xFFFFFFFFl

let update state buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then invalid_arg "Crc32.digest";
  let t = tables in
  let byte i = Char.code (Bytes.unsafe_get buf i) in
  let c = ref (Int32.to_int state land mask32) in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let p = !i in
    let x = !c in
    c :=
      Array.unsafe_get t ((7 * 256) + ((x lxor byte p) land 0xFF))
      lxor Array.unsafe_get t ((6 * 256) + (((x lsr 8) lxor byte (p + 1)) land 0xFF))
      lxor Array.unsafe_get t ((5 * 256) + (((x lsr 16) lxor byte (p + 2)) land 0xFF))
      lxor Array.unsafe_get t ((4 * 256) + ((x lsr 24) lxor byte (p + 3)))
      lxor Array.unsafe_get t ((3 * 256) + byte (p + 4))
      lxor Array.unsafe_get t ((2 * 256) + byte (p + 5))
      lxor Array.unsafe_get t (256 + byte (p + 6))
      lxor Array.unsafe_get t (byte (p + 7));
    i := p + 8
  done;
  let stop = pos + len in
  while !i < stop do
    let x = !c in
    c := Array.unsafe_get t ((x lxor byte !i) land 0xFF) lxor (x lsr 8);
    incr i
  done;
  Int32.of_int !c

let finish state = Int32.logxor state 0xFFFFFFFFl

let digest buf ~pos ~len = finish (update init buf ~pos ~len)
