(** The wire protocol of the socket front-end: length-prefixed binary
    frames carrying {!Batch} request/response lines.

    Layout (all integers big-endian):

    {v
    +-------------+----------+-----------+------------------+
    | len : u32   | kind: u8 | id : u32  | payload          |
    +-------------+----------+-----------+------------------+
    v}

    [len] counts every byte after the length field itself, so
    [len = 5 + |payload|] and a whole frame is [4 + len] bytes.  [id] is
    chosen by the client and echoed verbatim in the reply, which is what
    lets a client pipeline requests over one connection.

    Frame kinds:

    - ['Q'] request — payload is one or more {!Batch} query lines joined
      by ['\n'];
    - ['C'] control — payload is one serve control command
      ([stats], [metrics], [slowlog], [gens], [flip], [rollback],
      [apply OP], [quit]);
    - ['R'] response — payload is a [u32] snapshot epoch followed by one
      rendered answer line per query, joined by ['\n'], in request order;
    - ['E'] error — the request could not be served as a whole (protocol
      violation, control failure); payload is the reason.  Per-line query
      parse failures are {e not} errors: they answer [error: ...] in
      their slot of an ['R'] frame;
    - ['B'] busy — admission control rejected the request (queue full or
      too many requests in flight); payload is the reason.  The client
      should back off and retry.

    A frame whose [len] is below 5 or above the receiver's limit is
    unrecoverable (the stream cannot be resynchronised) and raises
    {!Protocol_error}; the server answers with an ['E'] frame and closes
    the connection.  An unknown kind byte with a believable length is
    recoverable: the payload is consumed and the frame is returned as
    {!constructor:Unknown}, so the server can answer ['E'] and keep the
    connection. *)

type kind =
  | Request
  | Control
  | Response
  | Error
  | Busy
  | Unknown of char

type t = { kind : kind; id : int; payload : string }

exception Protocol_error of string
(** The byte stream is not a frame stream (bad magic length, oversized
    declaration).  The connection must be closed. *)

val default_max_bytes : int
(** Default cap on [len] (4 MiB): bounds the memory one connection can
    demand before any validation. *)

val pp_kind : Format.formatter -> kind -> unit

(** {1 Encoding} *)

val encode : kind -> id:int -> string -> Bytes.t
(** [encode kind ~id payload] is the whole frame, header included.
    @raise Invalid_argument on {!constructor:Unknown}. *)

val request : id:int -> string list -> Bytes.t
(** Query lines, joined by ['\n']. *)

val control : id:int -> string -> Bytes.t

val response : id:int -> epoch:int -> string list -> Bytes.t

val error : id:int -> string -> Bytes.t

val busy : id:int -> string -> Bytes.t

val response_payload : string -> (int * string list, string) result
(** Split an ['R'] payload into (epoch, answer lines). *)

(** {1 I/O}

    Blocking reads and writes on a connected socket (or any file
    descriptor).  Writes always write the whole frame; short writes are
    retried. *)

val read : ?max_bytes:int -> Unix.file_descr -> t option
(** Read one frame.  [None] on a clean end-of-stream at a frame
    boundary.
    @raise End_of_file when the stream ends inside a frame (truncation,
    mid-frame disconnect);
    @raise Protocol_error on an unrecoverable length;
    @raise Unix.Unix_error as the underlying reads do. *)

val write : Unix.file_descr -> Bytes.t -> unit
(** @raise Unix.Unix_error when the peer is gone ([EPIPE],
    [ECONNRESET]). *)
