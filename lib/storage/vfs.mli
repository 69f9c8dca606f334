(** Virtual file system under the {!Pager}.

    Everything the storage engine does to stable storage goes through one
    of these records of operations, so tests can substitute a
    fault-injecting implementation (torn writes, dropped un-fsynced data,
    crash-at-every-step — see [test/fault_vfs.ml]) without touching the
    engine.  Two implementations ship here: {!real} over [Unix] file
    descriptors, and {!memory}, a private in-process file system used by
    the [Memory] pager backend (and as the substrate of crash tests).

    Files reach their names one way only: written in full under
    {!tmp_path}, synced, and renamed into place ({!publish}).  A published
    file is never written again, so a reader holding it open keeps
    reading the same bytes however often the name is re-published, and a
    crash leaves each name holding its old or its new contents, never a
    mixture.  This rests on {!field-t.rename} being atomic and — after the
    directory fsync {!real} issues — durable.

    All operations raise {!Storage_error.Storage_error} on failure. *)

type file = {
  read : Bytes.t -> off:int -> pos:int -> len:int -> int;
      (** [read buf ~off ~pos ~len] reads up to [len] bytes from file
          offset [off] into [buf] at [pos]; returns the number of bytes
          read, [0] at end-of-file.  May return short counts — use
          {!read_full} to loop.  A positioned read: it moves no shared
          file offset, so while nothing writes the file any number of
          domains may read through one handle at once ({!real} issues
          one [pread(2)] with the runtime lock released).
          @raise Invalid_argument when [pos]/[len] do not name a range
          of [buf]. *)
  write : Bytes.t -> off:int -> pos:int -> len:int -> unit;
      (** Write exactly [len] bytes from [buf.[pos]] at file offset [off],
          extending the file if needed. *)
  sync : unit -> unit;  (** Make all written data durable (fsync). *)
  truncate : int -> unit;
  size : unit -> int;
  close : unit -> unit;
}

type t = {
  open_file : string -> create:bool -> file;
      (** [create:true] creates-or-truncates; [create:false] raises
          [File_not_found] when the path does not exist. *)
  exists : string -> bool;
  remove : string -> unit;
  rename : sync:bool -> string -> string -> unit;
      (** [rename ~sync src dst] atomically replaces [dst] with [src]; an
          open handle on the old [dst] keeps its old contents.  With
          [sync], the rename itself is made durable (the real file system
          fsyncs the parent directory).  {!real} first gives [src] the
          permission bits of the [dst] it replaces, so an operator's
          [chmod] survives a rebuild; the owner becomes the caller. *)
  list_dir : string -> string list;
      (** Names (without the directory prefix) of the files in a
          directory, sorted; an unreadable or missing directory lists as
          empty. *)
}

val real : t
(** The operating system's file system. *)

val memory : unit -> t
(** A fresh private in-memory file system; files persist across
    [open_file]/[close] for the lifetime of this value. *)

val read_full : file -> Bytes.t -> off:int -> pos:int -> len:int -> int
(** Loop {!field-file.read} until [len] bytes or end-of-file; returns the
    number of bytes actually read. *)

val tmp_path : string -> string
(** [path ^ ".tmp"]: where the next version of [path] is written before
    {!publish} renames it into place. *)

val publish : t -> fsync:bool -> file -> string -> unit
(** [publish vfs ~fsync f path]: [f] is the open {!tmp_path} of [path];
    sync it (when [fsync]) and rename it over [path] — the commit point.
    [f] stays open and now reads as [path]. *)

val read_file : t -> string -> string
(** The whole contents of a file.
    @raise Storage_error.Storage_error [File_not_found] when missing. *)
