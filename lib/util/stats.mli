(** Descriptive statistics and the confidence interval used by the
    distance-aware density estimator (Section 5.2 of the paper). *)

val mean : float array -> float

val min_max : float array -> float * float
(** @raise Invalid_argument on an empty array. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0,100]; linear interpolation.
    @raise Invalid_argument on an empty array. *)

type summary = {
  n : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}
(** Five-number digest shared by bench reporting and the histogram
    exporter in [Hopi_obs]. *)

val empty_summary : summary
(** The all-zero summary of an empty sample. *)

val summary : float array -> summary
(** Exact digest of a sample; [empty_summary] for an empty array. *)

(** Mutex-protected sample collector for readings produced concurrently on
    several domains (e.g. per-partition cover times from pool workers): no
    recording is lost, and {!Recorder.summary} digests a consistent
    snapshot. *)
module Recorder : sig
  type t

  val create : unit -> t

  val record : t -> float -> unit

  val summary : t -> summary
end

val proportion_ci_upper : successes:int -> samples:int -> z:float -> float
(** Upper bound of the Wald confidence interval for a proportion, clamped to
    [0,1].  The paper samples at most 13,600 candidate edges and takes the
    upper bound of the 98% interval ([z] = 2.33) as the density estimate. *)

val z_98 : float
(** z-value for a two-sided 98% confidence interval. *)
