(** CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte ranges.

    Used by the storage engine for page checksums and by the shard
    router for its routing-index checksum.  Computed slicing-by-8 (eight 256-entry tables, eight bytes
    per step, byte-at-a-time tail) over a native [int] register; the
    values are identical to the classic table-driven IEEE CRC-32
    (["123456789"] gives [0xCBF43926]).  Allocation-free apart from the
    boxed [int32] result. *)

val digest : Bytes.t -> pos:int -> len:int -> int32
(** Checksum of [len] bytes starting at [pos].

    @raise Invalid_argument if [pos]/[len] do not name a range of the
    buffer. *)

val init : int32
(** Initial running state for incremental use (not a valid digest). *)

val update : int32 -> Bytes.t -> pos:int -> len:int -> int32
(** Fold more bytes into a running state.  Splitting a range anywhere and
    folding the pieces in order gives the same state as one call.

    @raise Invalid_argument if [pos]/[len] do not name a range of the
    buffer. *)

val finish : int32 -> int32
(** Turn a running state into the final digest. *)
