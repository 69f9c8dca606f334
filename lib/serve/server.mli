(** The socket front-end: {!Frame}-framed request serving over
    Unix-domain and TCP listeners, with bounded per-connection queues and
    admission control.

    Threading model: one accept thread per listener, and per connection
    a {e reader} thread (decode, admission check, enqueue) — threads,
    because connection I/O is blocking.  Frames are served by a fixed
    set of [workers]: one systhread in the domain that called {!create}
    plus [workers - 1] domains, sharing one ready queue of connections.
    A connection is held by at most one worker at a time, and a worker
    serves one of its frames whole (parse, [eval], reply) before handing
    the connection back to the tail of the queue, so each connection's
    frames — queries and control commands alike — are answered in the
    order they arrived, while frames from different connections run in
    parallel.  A frame is the unit of parallelism: [eval] is expected to
    evaluate its batch sequentially (e.g. with {!Batch.eval_engine}) on
    the worker that called it, not to fan it out.

    Admission control: a request frame is rejected with a ['B'] (busy)
    frame — never silently dropped — when its connection already has
    [queue_depth] requests waiting, or the server as a whole has
    [max_inflight] requests admitted but unanswered.  Malformed frames
    answer ['E'] and (when the stream cannot be resynchronised) close the
    connection; a mid-frame disconnect is a clean close.  Nothing a
    client sends can take the server down, and connections never share
    queues, so one misbehaving peer cannot poison another — the protocol
    fuzz suite in [test/test_server.ml] drives exactly this.

    Observability: [hopi_server_connections_total] / [_open],
    [hopi_server_requests_total], [hopi_server_rejected_total],
    [hopi_server_protocol_errors_total], [hopi_server_inflight], and the
    [hopi_server_queue_wait_ns] histogram.  Per-request queue wait and
    connection ids additionally flow into {!Hopi_obs.Reqtrace} samples
    through the {!Batch.ctx} handed to [eval]. *)

type endpoint =
  | Unix_socket of string  (** path; unlinked on [bind] and on {!stop} *)
  | Tcp of string * int  (** bind address and port; port 0 = ephemeral *)

type handler = {
  eval : ctx:Batch.ctx -> Batch.query array -> int * Batch.answer array;
      (** Evaluate one request batch; returns the serving snapshot's
          epoch and the answers in input order.  May run concurrently on
          several workers (for frames of different connections), with no
          server lock held, so it must be safe from any domain and must
          not submit to a shared {!Hopi_util.Pool}; an exception answers
          the whole request with an ['E'] frame. *)
  control : string -> (string, string) result;
      (** Serve one control command; [Ok] text answers as ['R'] (epoch
          0), [Error] as ['E'].  Control commands are serialised among
          themselves on a control mutex, but run concurrently with other
          connections' [eval]s. *)
}

type t

val create :
  ?workers:int ->
  ?max_inflight:int ->
  ?queue_depth:int ->
  ?max_frame_bytes:int ->
  handler ->
  t
(** Start the serving workers.  [workers] (default 1, clamped to [>= 1])
    is the number of frames served at once: one systhread plus
    [workers - 1] domains, so [workers = 1] spawns no domain.
    [max_inflight] (default 64) caps admitted-but-unanswered requests
    across all connections; [queue_depth] (default 16) caps one
    connection's wait queue; [max_frame_bytes] (default
    {!Frame.default_max_bytes}) bounds a single frame.  Call {!stop} to
    join the workers. *)

val add_listener : t -> endpoint -> Unix.sockaddr
(** Bind, listen, and start accepting.  Returns the bound address — for
    [Tcp (_, 0)] the kernel-chosen port.
    @raise Unix.Unix_error when binding fails. *)

val request_shutdown : t -> unit
(** Make {!wait} return.  Idempotent; safe from any thread (the control
    handler calls this on [quit]). *)

val wait : t -> unit
(** Block until {!request_shutdown}. *)

val stop : t -> unit
(** Close listeners, shut down every connection, join every reader and
    worker.  In-queue requests admitted before [stop] are still
    answered. *)

val connections_seen : t -> int

val requests_served : t -> int
