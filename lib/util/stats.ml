let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

(* [Float.compare], not the polymorphic [compare]: the generic comparison
   goes through the runtime's structural-compare path on boxed floats and
   gives unspecified orderings in the presence of nan. *)
let min_max xs =
  if Array.length xs = 0 then invalid_arg "Stats.min_max: empty";
  Array.fold_left
    (fun (lo, hi) x ->
      ((if Float.compare x lo < 0 then x else lo),
       (if Float.compare x hi > 0 then x else hi)))
    (xs.(0), xs.(0)) xs

let percentile_sorted sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let percentile xs p =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  percentile_sorted sorted p

(* Five-number digest shared by bench reporting and the histogram exporter
   in [Hopi_obs]. *)
type summary = {
  n : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

let empty_summary = { n = 0; mean = 0.0; p50 = 0.0; p95 = 0.0; p99 = 0.0; max = 0.0 }

let summary xs =
  let n = Array.length xs in
  if n = 0 then empty_summary
  else begin
    let sorted = Array.copy xs in
    Array.sort Float.compare sorted;
    {
      n;
      mean = mean xs;
      p50 = percentile_sorted sorted 50.0;
      p95 = percentile_sorted sorted 95.0;
      p99 = percentile_sorted sorted 99.0;
      max = sorted.(n - 1);
    }
  end

(* A mutex-protected sample buffer for readings taken on several domains
   at once (per-partition cover times from pool workers).  [summary] runs
   the exact digest above over a snapshot, so no sample is lost and no
   torn float is ever read — the lock is per recording, which is fine for
   per-item (not per-operation) granularity. *)
module Recorder = struct
  type t = { mu : Mutex.t; mutable samples : float list }

  let create () = { mu = Mutex.create (); samples = [] }

  let record t x =
    Mutex.lock t.mu;
    t.samples <- x :: t.samples;
    Mutex.unlock t.mu

  let summary t =
    Mutex.lock t.mu;
    let xs = Array.of_list t.samples in
    Mutex.unlock t.mu;
    summary xs
end

let z_98 = 2.3263

let proportion_ci_upper ~successes ~samples ~z =
  if samples <= 0 then 1.0
  else begin
    let n = float_of_int samples in
    let p = float_of_int successes /. n in
    let upper = p +. (z *. sqrt (p *. (1.0 -. p) /. n)) in
    Float.min 1.0 (Float.max 0.0 upper)
  end
