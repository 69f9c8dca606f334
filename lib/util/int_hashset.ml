(* Open addressing over one flat [int array]: power-of-two capacity,
   linear probing from a multiplicative (Fibonacci) hash, load factor kept
   at or below one half, and deletion by backward shift so no tombstones
   build up.  A free slot holds [free]; the key [free] itself lives in the
   side flag [has_free], so every [int] is storable. *)

let free = min_int

type t = {
  mutable slots : int array;  (** length a power of two, >= 2 *)
  mutable shift : int;  (** [63 - log2 (Array.length slots)] *)
  mutable size : int;  (** keys in [slots], [free] excluded *)
  mutable has_free : bool;
}

(* 2^63 / golden ratio, made odd: multiplying scatters runs of small
   consecutive ids over the top bits, which [shift] keeps *)
let golden = 0x4F1B_BCDC_BFA5_3E0B

let[@inline] home t x = (x * golden) lsr t.shift

let min_capacity = 8

let rec log2_above n k = if 1 lsl k >= n then k else log2_above n (k + 1)

let make_slots capacity =
  let bits = log2_above (max min_capacity capacity) 3 in
  (Array.make (1 lsl bits) free, 63 - bits)

let create ?(initial = 16) () =
  let slots, shift = make_slots (2 * max 0 initial) in
  { slots; shift; size = 0; has_free = false }

(* slot holding [x], or the free slot where it would go *)
let find_slot t x =
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let i = ref (home t x) in
  while
    let k = Array.unsafe_get slots !i in
    k <> x && k <> free
  do
    i := (!i + 1) land mask
  done;
  !i

let mem t x =
  if x = free then t.has_free else Array.unsafe_get t.slots (find_slot t x) = x

let grow t =
  let old = t.slots in
  let slots, shift = make_slots (2 * Array.length old) in
  t.slots <- slots;
  t.shift <- shift;
  Array.iter (fun x -> if x <> free then Array.unsafe_set slots (find_slot t x) x) old

let add t x =
  if x = free then t.has_free <- true
  else begin
    let i = find_slot t x in
    if Array.unsafe_get t.slots i = free then begin
      Array.unsafe_set t.slots i x;
      t.size <- t.size + 1;
      if 2 * t.size > Array.length t.slots then grow t
    end
  end

(* Backward-shift deletion: walk the probe run after the hole and pull
   back every key whose home does not lie strictly between the hole and
   its current slot, so every remaining key stays reachable from its
   home without a tombstone. *)
let remove t x =
  if x = free then t.has_free <- false
  else begin
    let slots = t.slots in
    let hole = ref (find_slot t x) in
    if Array.unsafe_get slots !hole = x then begin
      let mask = Array.length slots - 1 in
      let j = ref ((!hole + 1) land mask) in
      while Array.unsafe_get slots !j <> free do
        let k = Array.unsafe_get slots !j in
        if (!j - home t k) land mask >= (!j - !hole) land mask then begin
          Array.unsafe_set slots !hole k;
          hole := !j
        end;
        j := (!j + 1) land mask
      done;
      Array.unsafe_set slots !hole free;
      t.size <- t.size - 1
    end
  end

let cardinal t = if t.has_free then t.size + 1 else t.size

let is_empty t = t.size = 0 && not t.has_free

let iter f t =
  if t.has_free then f free;
  let slots = t.slots in
  for i = 0 to Array.length slots - 1 do
    let x = Array.unsafe_get slots i in
    if x <> free then f x
  done

let fold f t acc =
  let acc = ref (if t.has_free then f free acc else acc) in
  let slots = t.slots in
  for i = 0 to Array.length slots - 1 do
    let x = Array.unsafe_get slots i in
    if x <> free then acc := f x !acc
  done;
  !acc

let to_list t = fold List.cons t []


let clear t =
  if t.size > 0 then Array.fill t.slots 0 (Array.length t.slots) free;
  t.size <- 0;
  t.has_free <- false

let copy t = { t with slots = Array.copy t.slots }
