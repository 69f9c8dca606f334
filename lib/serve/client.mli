(** A blocking client for the {!Frame} protocol — one connection, one
    request in flight at a time (ids are still checked, so a server bug
    that answers out of order is caught, not silently accepted).  Used by
    [hopi client], the socket soak/fuzz tests, and the socket bench. *)

type t

type reply =
  | Answers of int * string list
      (** epoch, one rendered answer line per query, in request order *)
  | Busy of string  (** admission control said back off *)
  | Refused of string  (** an ['E'] frame: the request was not served *)

val connect_unix : string -> t
(** @raise Unix.Unix_error when nothing listens on the path. *)

val connect_tcp : string -> int -> t
(** [connect_tcp host port]; [host] is a dotted address. *)

val close : t -> unit

val request : ?max_bytes:int -> t -> string list -> (reply, string) result
(** Send the query lines as one ['Q'] frame and read the reply.  [Error]
    means the conversation itself broke: closed connection, truncated or
    malformed reply, id mismatch. *)

val control : ?max_bytes:int -> t -> string -> (reply, string) result
(** Send one control command as a ['C'] frame. *)

val send_raw : t -> Bytes.t -> unit
(** Write arbitrary bytes (the fuzz suite's malformed frames).
    @raise Unix.Unix_error when the peer already closed. *)

val read_reply : ?max_bytes:int -> ?expect_id:int -> t -> (reply, string) result
(** Read one reply frame without sending anything first; with
    [expect_id], a reply to any other request id is an [Error]. *)
