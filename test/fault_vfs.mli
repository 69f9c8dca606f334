(** A fault-injecting {!Hopi_storage.Vfs} for crash-safety tests.

    Every file is kept as two images: the {e volatile} one (what the OS page
    cache would hold — all writes land here) and the {e durable} one (what
    the platter holds — updated only by [sync]).  A simulated crash decides
    the fate of un-synced data, optionally tears the in-flight write at a
    byte boundary, and raises {!Crash}; after that the surviving state is
    what a fresh process would see when it reopens the files.

    Failure-model assumptions (documented in DESIGN.md): metadata
    operations — [remove], [truncate] and [rename] — are atomic and
    durable (the real file system earns this for [rename] with the
    directory fsync {!Hopi_storage.Vfs.real} issues); a rename moves the
    file's images to the new name, and a handle still open on the
    replaced file keeps reading the old one; a torn write delivers a
    prefix of the buffer; un-synced writes either all survive
    ([Keep_unsynced]) or all vanish ([Drop_unsynced]) — intermediate
    interleavings are covered by crashing at every operation index.

    Counted operations (the crash clock): write, sync, truncate, remove,
    rename.
    Reads tick a {e separate} clock ({!read_count}) so read-side fault
    plans ({!arm_fail_read}, {!arm_torn_read}) never shift the
    crash-matrix operation indexes of existing workloads. *)

type t

type mode =
  | Drop_unsynced  (** the crash loses everything after the last [sync] *)
  | Keep_unsynced  (** the page cache happened to reach the platter *)

exception Crash
(** Raised out of the faulted operation; the engine under test is then
    abandoned and the store reopened through {!vfs}. *)

val create : unit -> t

val vfs : t -> Hopi_storage.Vfs.t

val op_count : t -> int
(** Counted operations performed so far (see above).  Probe a workload
    fault-free first to learn its op count [n], then crash at each
    [k < n]. *)

val reset_ops : t -> unit

val arm_crash : t -> op:int -> mode:mode -> ?tear:int -> unit -> unit
(** Crash when the operation counter reaches [op] (before that operation
    takes effect).  If the faulted operation is a write and [tear] is given,
    the first [tear] bytes of it still reach the durable image. *)

val arm_fail_write : t -> n:int -> unit
(** Make the [n]-th write (0-based) raise [Storage_error (Io _)] — a
    reported I/O error, not a crash: no data is lost. *)

val write_count : t -> int
(** Writes performed so far (each also counts in {!op_count}).  Probe a
    workload fault-free to learn its write count, then fail each index. *)

val read_count : t -> int
(** Reads performed so far (its own clock — not part of {!op_count}).
    Probe a read workload fault-free first to learn its read count, then
    fault each index. *)

val arm_fail_read : t -> n:int -> unit
(** Make the [n]-th read (0-based) raise [Storage_error (Io _)].  The
    file state is untouched: the very same read succeeds on retry. *)

val arm_torn_read : t -> n:int -> frag:int -> unit
(** Make the [n]-th read (0-based) deliver only its first [frag] bytes;
    the tail of the transfer reads as zeros but the byte count reported
    to the caller is the full one — only checksum verification can tell.
    Keep [frag >= 8] so the page header (and its checksum field) survives
    and verification reports [Corrupt] rather than mistaking the page for
    an all-zero fresh page. *)

val disarm : t -> unit

type snapshot

val snapshot : t -> snapshot
(** Deep copy of all durable images. *)

val restore : t -> snapshot -> unit
(** Reset every file (both images) to the snapshot and disarm faults; the
    operation counter is left untouched (use {!reset_ops}). *)

val corrupt_byte : t -> string -> off:int -> unit
(** Flip one byte of [file] in both images (bit-rot simulation).
    @raise Not_found if the file does not exist or is too short. *)

val durable_size : t -> string -> int
(** Size of the durable image ([0] if absent). *)
