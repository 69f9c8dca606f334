(** CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte ranges.

    Used by the storage engine for page checksums.  Computed slicing-by-8 (eight 256-entry tables, eight bytes
    per step, byte-at-a-time tail) over a native [int] register; the
    values are identical to the classic table-driven IEEE CRC-32
    (["123456789"] gives [0xCBF43926]).  Allocation-free apart from the
    boxed [int32] result. *)

val digest : Bytes.t -> pos:int -> len:int -> int32
(** Checksum of [len] bytes starting at [pos].

    @raise Invalid_argument if [pos]/[len] do not name a range of the
    buffer. *)
