(** Deterministic splitmix64 pseudo-random generator.

    All synthetic workloads are seeded so that every experiment is exactly
    reproducible across runs and machines, independent of the state of the
    stdlib [Random] module. *)

type t

val create : int -> t
(** [create seed] — equal seeds yield equal streams. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).  @raise Invalid_argument if
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> bool

val pareto : t -> alpha:float -> xmin:float -> float
(** Pareto-distributed sample; used for power-law citation out-degrees. *)

val pick : t -> 'a array -> 'a
(** Uniform choice.  @raise Invalid_argument on an empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
