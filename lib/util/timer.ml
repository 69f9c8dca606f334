(* Monotonic timing.

   [Unix.gettimeofday] is wall-clock time: it jumps backwards under NTP
   adjustment or manual clock changes, which would make span durations and
   bench numbers negative.  We read CLOCK_MONOTONIC instead, through the
   [@@noalloc] stub of bechamel's monotonic_clock library, so taking a
   timestamp never allocates.

   Fallback: on a platform where the stub cannot read a monotonic clock it
   reports 0, in which case every duration degenerates to 0 rather than
   going negative; [elapsed_ns] additionally clamps at zero so no caller
   can ever observe a negative duration. *)

type t = int64 (* nanoseconds since an arbitrary (boot-time) origin *)

let now_ns () : int64 = Monotonic_clock.now ()

let start = now_ns

let elapsed_ns t =
  let d = Int64.sub (now_ns ()) t in
  if Int64.compare d 0L < 0 then 0L else d

let elapsed_s t = Int64.to_float (elapsed_ns t) *. 1e-9

let ns_of_s s = if s <= 0.0 then 0 else int_of_float (s *. 1e9)

let time f =
  let t = start () in
  let r = f () in
  (r, elapsed_s t)

let pp_duration ppf s =
  if s < 0.001 then Format.fprintf ppf "%.1fus" (s *. 1e6)
  else if s < 1.0 then Format.fprintf ppf "%.1fms" (s *. 1e3)
  else Format.fprintf ppf "%.1fs" s

(* Shared duration accumulator: one [Atomic.fetch_and_add] per recording,
   so pool workers timing their own items never lose an update (a plain
   [float ref] would drop concurrent read-modify-writes).  The total is the
   phase's CPU time; total / wall time is the phase's parallel speedup. *)
module Acc = struct
  type nonrec t = int Atomic.t (* nanoseconds *)

  let create () = Atomic.make 0

  let add_ns t ns =
    let ns = Int64.to_int ns in
    ignore (Atomic.fetch_and_add t (if ns < 0 then 0 else ns))

  let total_s t = float_of_int (Atomic.get t) *. 1e-9

  let timed t f =
    let t0 = start () in
    Fun.protect f ~finally:(fun () -> add_ns t (elapsed_ns t0))
end
