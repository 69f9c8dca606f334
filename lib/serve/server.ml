(* Socket front-end (model in the interface).

   Invariants:
   - every admitted request is answered exactly once ('R' or 'E'), every
     rejected request answers 'B' — frames are never silently dropped;
   - a connection is [scheduled] from the moment work is queued on it
     until a worker finds its queue empty: it is then in [ready] or held
     by exactly one worker, so its frames are answered in arrival order,
     each by one worker, whole;
   - [handler.eval] runs on any worker with no lock held;
     [handler.control] runs under [ctl_mu];
   - a connection's fd is written only under its write mutex (the reader
     thread writes rejections and protocol errors, a worker writes
     answers) and closed exactly once, by the worker that takes its
     [Close], which the reader pushes last. *)

module Registry = Hopi_obs.Registry
module Counter = Hopi_obs.Counter
module Gauge = Hopi_obs.Gauge
module Histogram = Hopi_obs.Histogram
module Timer = Hopi_util.Timer

let m_conns =
  Registry.counter "hopi_server_connections_total" ~help:"Connections ever accepted"

let g_open = Registry.gauge "hopi_server_connections_open" ~help:"Connections currently open"

let m_requests =
  Registry.counter "hopi_server_requests_total" ~help:"Request frames admitted"

let m_rejected =
  Registry.counter "hopi_server_rejected_total"
    ~help:"Request frames rejected with a busy frame (admission control)"

let m_protocol_errors =
  Registry.counter "hopi_server_protocol_errors_total"
    ~help:"Malformed or unexpected frames received"

let g_inflight =
  Registry.gauge "hopi_server_inflight" ~help:"Requests admitted but not yet answered"

let h_queue_wait =
  Registry.histogram "hopi_server_queue_wait_ns"
    ~help:"Time a request spent in its connection queue before evaluation"

type endpoint =
  | Unix_socket of string
  | Tcp of string * int

type handler = {
  eval : ctx:Batch.ctx -> Batch.query array -> int * Batch.answer array;
  control : string -> (string, string) result;
}

type work =
  | Req of { id : int; payload : string; control : bool; t_enq : Timer.t }
  | Close

type conn = {
  conn_id : int;
  fd : Unix.file_descr;
  queue : work Queue.t;  (* guarded by the server's [mu], like the next two *)
  mutable q_len : int;  (* queued requests, Close excluded *)
  mutable scheduled : bool;  (* in [ready] or held by a worker *)
  w_mu : Mutex.t;
  mutable alive : bool;  (* cleared when a write fails: peer is gone *)
}

type worker =
  | In_thread of Thread.t
  | In_domain of unit Domain.t

type t = {
  handler : handler;
  max_inflight : int;
  queue_depth : int;
  max_frame_bytes : int;
  inflight : int Atomic.t;
  mu : Mutex.t;  (* connection queues, [ready] and [draining] *)
  ready : conn Queue.t;  (* scheduled connections no worker holds *)
  ready_cond : Condition.t;
  mutable draining : bool;  (* set by [stop]: workers exit once [ready] is empty *)
  mutable workers : worker list;
  ctl_mu : Mutex.t;
  mutable listeners : (Unix.file_descr * endpoint) list;
  mutable accept_threads : Thread.t list;
  conns : (int, conn * Thread.t) Hashtbl.t;  (* open connections and their readers *)
  conns_mu : Mutex.t;
  next_conn : int Atomic.t;
  stopping : bool Atomic.t;
  sd_mu : Mutex.t;
  sd_cond : Condition.t;
  mutable sd_requested : bool;
  served : int Atomic.t;
}

(* {1 Per-connection writes} *)

let send conn frame =
  Mutex.protect conn.w_mu (fun () ->
      if conn.alive then
        try Frame.write conn.fd frame
        with Unix.Unix_error _ | Sys_error _ -> conn.alive <- false)

(* {1 Workers} *)

let split_lines payload =
  String.split_on_char '\n' payload
  |> List.filter_map (fun l ->
         let l = String.trim l in
         if l = "" || l.[0] = '#' then None else Some l)

let answer_query t conn ~id ~payload ~queue_wait_ns =
  let slots = List.map Batch.parse (split_lines payload) in
  let queries =
    Array.of_list (List.filter_map (function Ok q -> Some q | Error _ -> None) slots)
  in
  let ctx = { Batch.conn = conn.conn_id; queue_wait_ns } in
  match t.handler.eval ~ctx queries with
  | epoch, answers ->
    (* merge evaluated answers back into their input slots; parse
       failures answer in place, exactly like the stdin loop *)
    let next = ref 0 in
    let lines =
      List.map
        (fun slot ->
          Batch.render
            (match slot with
            | Ok _ ->
              let a = answers.(!next) in
              incr next;
              a
            | Error e -> Batch.Failed e))
        slots
    in
    Frame.response ~id ~epoch lines
  | exception e -> Frame.error ~id ("evaluation failed: " ^ Printexc.to_string e)

let answer_control t ~id ~payload =
  match Mutex.protect t.ctl_mu (fun () -> t.handler.control payload) with
  | Ok body -> Frame.response ~id ~epoch:0 [ body ]
  | Error e -> Frame.error ~id e
  | exception e -> Frame.error ~id (Printexc.to_string e)

let serve t conn ~id ~payload ~control ~t_enq =
  let queue_wait_ns = Int64.to_int (Timer.elapsed_ns t_enq) in
  Histogram.observe h_queue_wait queue_wait_ns;
  let reply =
    try
      if control then answer_control t ~id ~payload
      else answer_query t conn ~id ~payload ~queue_wait_ns
    with e -> Frame.error ~id ("internal error: " ^ Printexc.to_string e)
  in
  (* release the slot before the reply goes out: a client that reads
     its answer and sends again at once must find room *)
  Atomic.incr t.served;
  Atomic.decr t.inflight;
  Gauge.set g_inflight (Atomic.get t.inflight);
  send conn reply

let close_conn t conn =
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  Gauge.set g_open
    (Mutex.protect t.conns_mu (fun () ->
         Hashtbl.remove t.conns conn.conn_id;
         Hashtbl.length t.conns))

(* Hand back the connection just served ([prev]: still scheduled, to the
   tail of [ready] if more of its work is queued), then take the head of
   [ready] and its oldest work item.  [None] once [stop] drained. *)
let take t prev =
  Mutex.protect t.mu (fun () ->
      (match prev with
      | Some c -> if Queue.is_empty c.queue then c.scheduled <- false else Queue.push c t.ready
      | None -> ());
      while Queue.is_empty t.ready && not t.draining do
        Condition.wait t.ready_cond t.mu
      done;
      match Queue.take_opt t.ready with
      | None -> None
      | Some conn ->
        let w = Queue.pop conn.queue in
        (match w with Close -> () | Req _ -> conn.q_len <- conn.q_len - 1);
        Some (conn, w))

(* The reply goes out before the connection is handed back, so a
   connection's replies leave in the order its frames arrived. *)
let rec work t prev =
  match take t prev with
  | None -> ()
  | Some (conn, Close) ->
    (* [Close] is the last item the reader pushes: the connection is
       never scheduled again *)
    close_conn t conn;
    work t None
  | Some (conn, Req { id; payload; control; t_enq }) ->
    serve t conn ~id ~payload ~control ~t_enq;
    work t (Some conn)

let create ?(workers = 1) ?(max_inflight = 64) ?(queue_depth = 16)
    ?(max_frame_bytes = Frame.default_max_bytes) handler =
  let t =
    {
      handler;
      max_inflight = max 1 max_inflight;
      queue_depth = max 1 queue_depth;
      max_frame_bytes;
      inflight = Atomic.make 0;
      mu = Mutex.create ();
      ready = Queue.create ();
      ready_cond = Condition.create ();
      draining = false;
      workers = [];
      ctl_mu = Mutex.create ();
      listeners = [];
      accept_threads = [];
      conns = Hashtbl.create 16;
      conns_mu = Mutex.create ();
      next_conn = Atomic.make 0;
      stopping = Atomic.make false;
      sd_mu = Mutex.create ();
      sd_cond = Condition.create ();
      sd_requested = false;
      served = Atomic.make 0;
    }
  in
  t.workers <-
    In_thread (Thread.create (work t) None)
    :: List.init (max 1 workers - 1) (fun _ -> In_domain (Domain.spawn (fun () -> work t None)));
  t

(* {1 Reader thread} *)

(* Queue [w] on [conn], scheduling the connection unless it already is. *)
let enqueue t conn w =
  Mutex.protect t.mu (fun () ->
      Queue.push w conn.queue;
      (match w with Close -> () | Req _ -> conn.q_len <- conn.q_len + 1);
      if not conn.scheduled then begin
        conn.scheduled <- true;
        Queue.push conn t.ready;
        Condition.signal t.ready_cond
      end)

let reader t conn () =
  let reject id reason =
    Counter.incr m_rejected;
    send conn (Frame.busy ~id reason)
  in
  let admit id payload control =
    (* exact global cap: claim a slot, hand it back if over *)
    let claimed = Atomic.fetch_and_add t.inflight 1 in
    if claimed >= t.max_inflight then begin
      Atomic.decr t.inflight;
      reject id (Printf.sprintf "server at max-inflight (%d)" t.max_inflight)
    end
    else if Mutex.protect t.mu (fun () -> conn.q_len) >= t.queue_depth then begin
      Atomic.decr t.inflight;
      reject id (Printf.sprintf "connection queue full (%d)" t.queue_depth)
    end
    else begin
      Counter.incr m_requests;
      Gauge.set g_inflight (Atomic.get t.inflight);
      enqueue t conn (Req { id; payload; control; t_enq = Timer.start () })
    end
  in
  let rec loop () =
    match Frame.read ~max_bytes:t.max_frame_bytes conn.fd with
    | None -> () (* clean close *)
    | exception End_of_file -> () (* mid-frame disconnect: clean close *)
    | exception Frame.Protocol_error msg ->
      (* stream out of sync: report and close *)
      Counter.incr m_protocol_errors;
      send conn (Frame.error ~id:0 msg)
    | exception Unix.Unix_error _ -> ()
    | exception Sys_error _ -> ()
    | Some { Frame.kind = Request; id; payload } ->
      admit id payload false;
      loop ()
    | Some { Frame.kind = Control; id; payload } ->
      admit id payload true;
      loop ()
    | Some { Frame.kind = Unknown c; id; _ } ->
      (* length was believable, payload consumed: recoverable *)
      Counter.incr m_protocol_errors;
      send conn (Frame.error ~id (Printf.sprintf "unknown frame kind %C" c));
      loop ()
    | Some { Frame.kind = (Response | Error | Busy) as k; id; _ } ->
      Counter.incr m_protocol_errors;
      send conn
        (Frame.error ~id (Format.asprintf "unexpected %a frame from a client" Frame.pp_kind k));
      loop ()
  in
  loop ();
  enqueue t conn Close

(* {1 Accepting} *)

let spawn_conn t cfd =
  let conn =
    {
      conn_id = 1 + Atomic.fetch_and_add t.next_conn 1;
      fd = cfd;
      queue = Queue.create ();
      q_len = 0;
      scheduled = false;
      w_mu = Mutex.create ();
      alive = true;
    }
  in
  Counter.incr m_conns;
  Mutex.protect t.conns_mu (fun () ->
      if Atomic.get t.stopping then begin
        (try Unix.close cfd with Unix.Unix_error _ -> ())
      end
      else begin
        let rt = Thread.create (reader t conn) () in
        Hashtbl.replace t.conns conn.conn_id (conn, rt);
        Gauge.set g_open (Hashtbl.length t.conns)
      end)

(* Poll with a timeout instead of blocking in [accept]: closing an fd
   does not wake a thread blocked in [accept] on Linux, so a blocking
   loop could never be joined.  [stop] flips [stopping] and joins within
   one poll interval. *)
let accept_loop t fd () =
  let rec loop () =
    if Atomic.get t.stopping then ()
    else
      match Unix.select [ fd ] [] [] 0.2 with
      | [], _, _ -> loop ()
      | _ :: _, _, _ -> (
        match Unix.accept ~cloexec:true fd with
        | cfd, _ ->
          spawn_conn t cfd;
          loop ()
        | exception
            Unix.Unix_error
              ((Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          loop ()
        | exception Unix.Unix_error (_, _, _) -> ()
        | exception Sys_error _ -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error (_, _, _) -> ()
      | exception Sys_error _ -> ()
  in
  loop ()

let add_listener t ep =
  let fd, addr =
    match ep with
    | Unix_socket path ->
      if Sys.file_exists path then Sys.remove path;
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let addr = Unix.ADDR_UNIX path in
      Unix.bind fd addr;
      (fd, addr)
    | Tcp (host, port) ->
      let inet = Unix.inet_addr_of_string host in
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (inet, port));
      (fd, Unix.getsockname fd)
  in
  Unix.listen fd 64;
  t.listeners <- (fd, ep) :: t.listeners;
  t.accept_threads <- Thread.create (accept_loop t fd) () :: t.accept_threads;
  addr

(* {1 Shutdown} *)

let request_shutdown t =
  Mutex.protect t.sd_mu (fun () ->
      t.sd_requested <- true;
      Condition.broadcast t.sd_cond)

let wait t =
  Mutex.protect t.sd_mu (fun () ->
      while not t.sd_requested do
        Condition.wait t.sd_cond t.sd_mu
      done)

let stop t =
  Atomic.set t.stopping true;
  (* join before closing: accept threads exit within one poll interval,
     and the fds are guaranteed unused (no close/reuse race) *)
  List.iter Thread.join t.accept_threads;
  t.accept_threads <- [];
  List.iter
    (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
    t.listeners;
  (* wake every reader: reads return 0 and readers push Close behind
     what they admitted; then let the workers drain [ready] and exit *)
  let live = Mutex.protect t.conns_mu (fun () -> Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []) in
  List.iter
    (fun (conn, _) ->
      try Unix.shutdown conn.fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    live;
  List.iter (fun (_, rt) -> Thread.join rt) live;
  Mutex.protect t.mu (fun () ->
      t.draining <- true;
      Condition.broadcast t.ready_cond);
  List.iter (function In_thread th -> Thread.join th | In_domain d -> Domain.join d) t.workers;
  t.workers <- [];
  List.iter
    (fun (_, ep) -> match ep with
      | Unix_socket path -> (try Sys.remove path with Sys_error _ -> ())
      | Tcp _ -> ())
    t.listeners;
  t.listeners <- [];
  request_shutdown t

let connections_seen t = Atomic.get t.next_conn

let requests_served t = Atomic.get t.served
