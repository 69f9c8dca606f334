(* A fixed log2-scale histogram over non-negative integer samples
   (nanoseconds, entry counts, label sizes).

   Bucket [i] counts samples [v] with [upper_bound (i-1) < v <= upper_bound i]
   where [upper_bound i = 2^i]; bucket 0 holds everything <= 1 (including
   clamped non-positive samples) and the last bucket is unbounded.  The
   bucket count is fixed at creation so [observe] is an index computation
   (branchless bit probing, no loop-carried refs) plus four plain updates
   of the calling domain's own cells ([Cells]: the buckets, the sum, the
   count and a per-domain maximum) — no atomic, no allocation, safe from
   any domain.  Readings sum the cells over every domain ([max_value]
   takes their maximum) and are exact once writers are quiet. *)

let n_buckets = 63

(* cell layout from [first]: the buckets, then the sum, the count and the
   maximum *)
let sum_slot = n_buckets

let count_slot = n_buckets + 1

let max_slot = n_buckets + 2

type t = { name : string; help : string; first : int }

let make ~name ~help = { name; help; first = Cells.alloc ~sum:(n_buckets + 2) ~max:1 }

(* Inclusive upper bound of bucket [i]; the last bucket absorbs the rest. *)
let upper_bound i = if i >= n_buckets - 1 then max_int else 1 lsl i

(* Smallest [i] with [v <= 2^i], i.e. ceil(log2 v); allocation-free. *)
let bucket_of_value v =
  if v <= 1 then 0
  else begin
    let v = v - 1 in
    let r5 = if v lsr 32 <> 0 then 32 else 0 in
    let v = v lsr r5 in
    let r4 = if v lsr 16 <> 0 then 16 else 0 in
    let v = v lsr r4 in
    let r3 = if v lsr 8 <> 0 then 8 else 0 in
    let v = v lsr r3 in
    let r2 = if v lsr 4 <> 0 then 4 else 0 in
    let v = v lsr r2 in
    let r1 = if v lsr 2 <> 0 then 2 else 0 in
    let v = v lsr r1 in
    let r0 = if v lsr 1 <> 0 then 1 else 0 in
    let i = r5 + r4 + r3 + r2 + r1 + r0 + 1 in
    if i > n_buckets - 1 then n_buckets - 1 else i
  end

let observe t v =
  let v = if v < 0 then 0 else v in
  let first = t.first in
  let a = Cells.local (first + max_slot) in
  let b = first + bucket_of_value v in
  Array.unsafe_set a b (Array.unsafe_get a b + 1);
  Array.unsafe_set a (first + sum_slot) (Array.unsafe_get a (first + sum_slot) + v);
  Array.unsafe_set a (first + count_slot) (Array.unsafe_get a (first + count_slot) + 1);
  if v > Array.unsafe_get a (first + max_slot) then Array.unsafe_set a (first + max_slot) v

let count t = Cells.read (t.first + count_slot)

let sum t = Cells.read (t.first + sum_slot)

let max_value t = Cells.read (t.first + max_slot)

let bucket_counts t = Cells.read_range t.first n_buckets

let reset t = Cells.reset t.first (max_slot + 1)

let name t = t.name

let help t = t.help

(* Approximate distribution digest from the buckets (the readings are
   not one atomic snapshot, which is fine for reporting).
   A percentile resolves to the upper bound of the bucket the rank falls
   into, except in the last populated bucket where the exact tracked
   maximum is tighter. *)
let summary t : Hopi_util.Stats.summary =
  let counts = bucket_counts t in
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then Hopi_util.Stats.empty_summary
  else begin
    let maximum = max_value t in
    let percentile p =
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int total)) in
      let rank = if rank < 1 then 1 else rank in
      let rec go i cum =
        if i >= n_buckets then float_of_int maximum
        else begin
          let cum = cum + counts.(i) in
          if cum >= rank then
            let ub = upper_bound i in
            float_of_int (if ub > maximum then maximum else ub)
          else go (i + 1) cum
        end
      in
      go 0 0
    in
    {
      Hopi_util.Stats.n = total;
      mean = float_of_int (sum t) /. float_of_int total;
      p50 = percentile 50.0;
      p95 = percentile 95.0;
      p99 = percentile 99.0;
      max = float_of_int maximum;
    }
  end
