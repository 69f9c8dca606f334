(** CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte ranges.

    Used by the storage engine for page checksums.  Computed
    slicing-by-16 (sixteen 256-entry tables, sixteen bytes per step read
    as four 32-bit words, byte-at-a-time tail) over a native [int]
    register; the values are identical to the classic table-driven IEEE
    CRC-32 (["123456789"] gives [0xCBF43926]).  Allocation-free apart
    from the boxed [int32] result. *)

val digest : Bytes.t -> pos:int -> len:int -> int32
(** Checksum of [len] bytes starting at [pos]: [update 0l].

    @raise Invalid_argument if [pos]/[len] do not name a range of the
    buffer. *)

val update : int32 -> Bytes.t -> pos:int -> len:int -> int32
(** [update crc buf ~pos ~len] extends [crc], the checksum of some bytes
    [a], to the checksum of [a] followed by the range (zlib's [crc32]
    contract): [update (digest a) b] is the digest of [a ^ b].
    @raise Invalid_argument as {!digest}. *)
