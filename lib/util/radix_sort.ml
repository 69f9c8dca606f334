(* LSD radix sort over non-negative ints.  The build pipeline sorts tens
   of millions of packed (node, center) entries; a comparison sort pays
   ~[log n] indirect compare calls per entry where counting passes pay a
   handful of array reads and writes.  The number of passes adapts to the
   largest value actually present, so small-id workloads (the common case:
   both packed halves are far below 2^31) sort in two or three passes.

   Digits are 16 bits wide, except below [small] entries: there the
   per-pass clear and prefix sum of 2^16 bucket counters outweigh the
   entries themselves (a 4,096-entry sort costs five times as much per
   entry), so small prefixes take twice as many passes over 8-bit
   digits.  The bound keeps the counters no larger than the entries. *)

let small = 1 lsl 16

(* [scratch] is used as the work space when it holds [len] entries; the
   digits start at bit [from_bit] *)
let sort_prefix_with ~from_bit scratch a len =
  if len > 1 then begin
    let max_v = ref 0 in
    for i = 0 to len - 1 do
      if a.(i) < 0 then invalid_arg "Radix_sort.sort_uniq_prefix: negative entry";
      if a.(i) > !max_v then max_v := a.(i)
    done;
    let digit_bits = if len < small then 8 else 16 in
    let n_buckets = 1 lsl digit_bits in
    let digit_mask = n_buckets - 1 in
    let scratch =
      match scratch with
      | Some s when Array.length s >= len -> s
      | _ -> Array.make len 0
    in
    let count = Array.make n_buckets 0 in
    let src = ref a and dst = ref scratch in
    let shift = ref from_bit in
    (* [lsr] by the word size or more is unspecified (x86 masks the count,
       so [max_v lsr 64] is [max_v]): stop once the digits cover the word *)
    while !shift < Sys.int_size && !max_v lsr !shift > 0 do
      Array.fill count 0 n_buckets 0;
      let s = !src and d = !dst and sh = !shift in
      for i = 0 to len - 1 do
        let dg = (s.(i) lsr sh) land digit_mask in
        count.(dg) <- count.(dg) + 1
      done;
      let acc = ref 0 in
      for dg = 0 to n_buckets - 1 do
        let c = count.(dg) in
        count.(dg) <- !acc;
        acc := !acc + c
      done;
      for i = 0 to len - 1 do
        let v = s.(i) in
        let dg = (v lsr sh) land digit_mask in
        d.(count.(dg)) <- v;
        count.(dg) <- count.(dg) + 1
      done;
      src := d;
      dst := s;
      shift := sh + digit_bits
    done;
    (* an odd number of passes leaves the sorted data in [scratch] *)
    if !src != a then Array.blit !src 0 a 0 len
  end

let sort_uniq_prefix ?scratch ?(from_bit = 0) a len =
  sort_prefix_with ~from_bit scratch a len;
  let k = ref (min len 1) in
  for i = 1 to len - 1 do
    if a.(i) <> a.(!k - 1) then begin
      a.(!k) <- a.(i);
      incr k
    end
  done;
  !k
