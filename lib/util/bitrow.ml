let bits = 62

let popcount x =
  let x = x - ((x lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f0f0f0f0f in
  (x * 0x0101010101010101) lsr 56

let count r = Array.fold_left (fun n w -> n + popcount w) 0 r

let mem ~lo r x =
  let i = (x / bits) - lo in
  i >= 0 && i < Array.length r && r.(i) land (1 lsl (x mod bits)) <> 0

(* lowest set bit first: its index is the popcount of the bits below it *)
let iter_word base w f =
  let w = ref w in
  while !w <> 0 do
    let b = !w land - !w in
    f (base + popcount (b - 1));
    w := !w lxor b
  done

let iter ~lo r f =
  for i = 0 to Array.length r - 1 do
    iter_word ((lo + i) * bits) r.(i) f
  done
