(** Fixed-size pages with little-endian integer accessors.

    The storage engine replays the paper's database-backed design (Oracle
    index-organized tables, Section 3.4) with its own page stack of row
    tables; this module is the byte-level layer.

    The first 8 bytes of every page belong to the pager, not
    to the page's user: bytes [0..3] hold a CRC-32 of the payload (stamped
    by {!Pager.write}, verified on every read-pool miss), byte [4] is an
    initialization flag (0 = never written, 1 = checksummed), bytes [5..7]
    are reserved.  Structures built on pages (row heaps and
    directories, the catalog) lay out their content from {!payload_off} up. *)

val size : int
(** Page size in bytes (4096). *)

val payload_off : int
(** First byte offset usable by page content, after the 8-byte checksum
    header. *)

type t = Bytes.t

val create : unit -> t

val get_i32 : t -> int -> int
(** Signed 32-bit little-endian. *)

val set_i32 : t -> int -> int -> unit
(** @raise Invalid_argument when the value exceeds 32-bit range. *)

(** {1 Checksum header} *)

val stamp : t -> unit
(** Recompute the payload CRC into the header and set the written flag;
    called by the pager immediately before every page write. *)

val verify : t -> [ `Ok | `Fresh | `Corrupt ]
(** [`Ok]: written flag set and CRC matches.  [`Fresh]: the whole page is
    zero (a never-written page read back as a hole).  [`Corrupt]:
    anything else — a flipped payload byte, a flipped CRC byte, a flipped
    flag, or a torn write. *)
