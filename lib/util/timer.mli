(** Monotonic timing helpers (CLOCK_MONOTONIC; durations can never be
    negative, unlike [Unix.gettimeofday] under NTP adjustment). *)

type t
(** An opaque monotonic timestamp. *)

val now_ns : unit -> int64
(** Nanoseconds on the monotonic clock, from an arbitrary origin.  Reading
    the clock does not allocate, so this is safe on metric hot paths. *)

val start : unit -> t

val elapsed_ns : t -> int64
(** Nanoseconds since [start]; clamped at zero. *)

val elapsed_s : t -> float
(** Seconds since [start]; clamped at zero. *)

val ns_of_s : float -> int
(** Seconds to integer nanoseconds (for histogram samples); clamps negative
    inputs to 0. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f ()] and also returns its duration in seconds. *)

val pp_duration : Format.formatter -> float -> unit
(** Human-readable seconds, e.g. ["820.8s"] or ["3.2ms"]. *)

(** Atomic duration accumulator, safe to feed from concurrent pool workers
    (no lost updates, unlike a [float ref]).  Summing every worker's item
    time gives a phase's CPU time; CPU / wall is its parallel speedup. *)
module Acc : sig
  type t

  val create : unit -> t

  val add_ns : t -> int64 -> unit
  (** Negative durations clamp to zero. *)

  val total_s : t -> float

  val timed : t -> (unit -> 'a) -> 'a
  (** Run [f] and add its duration (also on exceptions). *)
end
