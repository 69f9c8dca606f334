(** Delta-encoded 2-hop label sets: the serving layer's wire format.

    A label set is the sorted row sequence [(center, dist), ...] of a
    forward-index range scan — ascending by [(center, dist)], one row per
    stored label entry, so one center may span several rows (a
    distance-aware cover keeps multiple distances per center).  The
    encoding is a byte stream of LEB128 varints: per row the center's
    delta against the previous row, then the distance.  Typical covers
    label nodes with near-consecutive center ids at single-digit
    distances, so most rows cost two bytes instead of the sixteen of a
    boxed pair — the point is to shrink bytes touched per probe so the
    shared page pool and label cache go further.

    All probes decode streamwise without materialising arrays or
    allocating per row, and every probe is a pure function of the bytes:
    encoded label sets are safe to share across domains.  The same
    encoding is the row format of a persisted cover store
    ([Hopi_storage.Cover_store]), whose rows a {!type-cursor} decodes in
    place, straight off a page image. *)

type t = bytes

val empty : t

(** Streaming encoder.  Feed rows in [(center, dist)] order — exactly the
    order [Cover_store.iter_lin]/[iter_lout] visit them. *)
module Enc : sig
  type e

  val create : unit -> e

  val row : e -> center:int -> dist:int -> unit
  (** @raise Invalid_argument on a negative field or an out-of-order
      row. *)

  val finish : e -> t
end

val encode_pairs : (int * int) array -> t
(** Encode rows already materialised (tests; must be sorted). *)

val to_array : t -> int array
(** Decode to the flattened [|c0; d0; c1; d1; ...|] layout. *)

val n_rows : t -> int

val size_bytes : t -> int

val iter : t -> (center:int -> dist:int -> unit) -> unit

(** {1 Cursors}

    A reusable, allocation-free decoder over a byte range holding one
    encoded label set — the in-place reader of stored rows. *)

type cursor

val cursor : unit -> cursor
(** A cursor over nothing; {!reset} points it at a row. *)

val reset : cursor -> bytes -> pos:int -> len:int -> unit
(** Point the cursor before the first row of the encoded set held in
    [bytes] at [\[pos, pos + len)].
    @raise Invalid_argument when the range is outside [bytes]. *)

val advance : cursor -> bool
(** Decode the next row, or answer [false] at the end of the range.
    @raise Invalid_argument on a varint truncated by the range end. *)

val center : cursor -> int
(** The center of the row {!advance} last decoded. *)

val dist : cursor -> int

val iter_unmarked : cursor -> Bytes.t -> (int -> unit) -> unit
(** [iter_unmarked c seen f] decodes the rest of [c]'s range in one
    pass, reading centers only: each row whose center [s] is not yet
    marked in [seen] ([seen.[s] = '\000']) is marked and given to [f s],
    so [f] sees each center once however many rows (distances) or calls
    name it.  This is the scan of a backward row, whose centers are
    directory slots and [seen] a mark per slot.
    @raise Invalid_argument on a truncated varint or a center outside
    [seen]. *)

(** {1 Probes} *)

val iter_centers : t -> (int -> unit) -> unit
(** Distinct centers, ascending (one call per run). *)

val mem : t -> int -> bool

val find_min_dist : t -> int -> int
(** Minimum stored distance of this center's run, or [-1] when the center
    is not in the set.  Early-exits on the sort order. *)

val intersects : t -> t -> bool
(** Do the two sets share a center?  A linear merge of both streams. *)

val merge_min : t -> t -> int
(** [min (da + db)] over common centers — the 2-hop distance combine — or
    [-1] when the sets are disjoint.  Skips within-run duplicates: the
    first row of a run already carries its minimum distance. *)
