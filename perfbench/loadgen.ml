(* The socket load generator: closed and open loops over at most two
   connections, every reply checked against the oracle.

   Open-loop requests are timed from their due time, not their send
   time, so a stall in the server (or in this generator) is charged to
   every request queued behind it; how late the generator itself sent is
   recorded separately.  Busy and error frames and requests without a
   reply by the timeout are failures, and count as missing every latency
   limit. *)

module Frame = Hopi_serve.Frame

let timeout_s = 5.0

type conn = { fd : Unix.file_descr; mutable next_id : int }

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; next_id = 1 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c kind payload =
  let id = c.next_id in
  c.next_id <- id + 1;
  Frame.write c.fd (Frame.encode kind ~id payload);
  id

let recv c =
  match Frame.read c.fd with
  | Some f -> f
  | None -> failwith "server closed the connection"

let readable fd timeout =
  match Unix.select [ fd ] [] [] (Float.max 0.0 timeout) with
  | r, _, _ -> r <> []
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(* {1 Per-phase tallies} *)

type tally = {
  mutable sent : int;
  mutable answered : int;  (** correct replies *)
  mutable queries : int;  (** queries in correct replies *)
  mutable wrong : int;
  mutable failed : int;  (** busy, error and timed-out requests *)
  mutable lat : (float * float) list;
      (** (due time, latency in ms); failed and wrong replies count as
          the timeout, missing every latency limit *)
  mutable late_ms : float list;
}

let tally () =
  { sent = 0; answered = 0; queries = 0; wrong = 0; failed = 0; lat = []; late_ms = [] }

let merge a b =
  {
    sent = a.sent + b.sent;
    answered = a.answered + b.answered;
    queries = a.queries + b.queries;
    wrong = a.wrong + b.wrong;
    failed = a.failed + b.failed;
    lat = List.rev_append a.lat b.lat;
    late_ms = List.rev_append a.late_ms b.late_ms;
  }

(* [expected epoch i]: the reply body frame [i] must carry when answered
   by the generation [epoch]; [None] when that epoch is unknown. *)
type requests = {
  frames : Workload.frame array;
  expected : int -> int -> string option;
}

let miss t ~due = t.lat <- (due, timeout_s *. 1000.0) :: t.lat

(* Frames answered correctly so far, over every loop of the process: the
   live-churn writer paces itself by it. *)
let answered = Atomic.make 0

let record t reqs i (reply : Frame.t) ~due =
  let lat_ms = (Util.now () -. due) *. 1000.0 in
  match reply.Frame.kind with
  | Frame.Response ->
    let p = reply.Frame.payload in
    let epoch =
      if String.length p < 4 then -1
      else
        (Char.code p.[0] lsl 24) lor (Char.code p.[1] lsl 16) lor (Char.code p.[2] lsl 8)
        lor Char.code p.[3]
    in
    let body = if String.length p < 4 then "" else String.sub p 4 (String.length p - 4) in
    (match reqs.expected epoch i with
     | Some want when String.equal want body ->
       t.answered <- t.answered + 1;
       Atomic.incr answered;
       t.queries <- t.queries + Array.length reqs.frames.(i).Workload.queries;
       t.lat <- (due, lat_ms) :: t.lat
     | _ ->
       t.wrong <- t.wrong + 1;
       miss t ~due)
  | _ ->
    t.failed <- t.failed + 1;
    miss t ~due

(* Run [f conn_index] on [n] domains (the caller's included) and merge. *)
let on_domains n f =
  let others = List.init (n - 1) (fun k -> Domain.spawn (fun () -> f (k + 1))) in
  let mine = f 0 in
  List.fold_left (fun acc d -> merge acc (Domain.join d)) mine others

(* {1 Closed loop} *)

(* One request in flight per connection; connection [k] walks the frames
   [k, k+n, k+2n, ...] cyclically until [seconds] pass (or, with [pass],
   until the first [pass] frames were sent once). *)
let closed ?pass conns reqs ~seconds =
  let n = Array.length conns in
  let nf = Array.length reqs.frames in
  let t_end = Util.now () +. seconds in
  on_domains n (fun k ->
      let c = conns.(k) in
      let t = tally () in
      let j = ref k in
      while (match pass with Some m -> !j < min m nf | None -> Util.now () < t_end) do
        let i = !j mod nf in
        let t0 = Util.now () in
        let id = send c Frame.Request reqs.frames.(i).Workload.payload in
        t.sent <- t.sent + 1;
        if not (readable c.fd timeout_s) then failwith "closed loop: request timed out";
        let reply = recv c in
        if reply.Frame.id <> id then failwith "closed loop: reply id mismatch";
        record t reqs i reply ~due:t0;
        j := !j + n
      done;
      t)

(* {1 Open loop} *)

(* Frames are due at [rate] per second in total, sent round-robin over
   the connections by one event loop: the generator sleeps in [select]
   between due times, so one thread suffices and it keeps off the cores
   the server needs. *)
let open_loop conns reqs ~rate ~seconds =
  let n = Array.length conns in
  let nf = Array.length reqs.frames in
  let t = tally () in
  (* per connection: request id -> (due time, frame); busy frames answer
     ahead of queued requests, so replies are matched by id *)
  let pending = Array.init n (fun _ -> Hashtbl.create 64) in
  let outstanding () = Array.exists (fun q -> Hashtbl.length q > 0) pending in
  let t0 = Util.now () +. 0.002 in
  let t_end = t0 +. seconds in
  let next = ref 0 in
  let due j = t0 +. (float_of_int j /. rate) in
  let finished = ref false in
  while not !finished do
    let now = Util.now () in
    let next_due = due !next in
    if next_due < t_end && now >= next_due then begin
      let k = !next mod n and i = !next mod nf in
      let id = send conns.(k) Frame.Request reqs.frames.(i).Workload.payload in
      t.sent <- t.sent + 1;
      t.late_ms <- ((now -. next_due) *. 1000.0) :: t.late_ms;
      Hashtbl.replace pending.(k) id (next_due, i);
      incr next
    end
    else if not (outstanding ()) then begin
      if next_due >= t_end then finished := true
      else ignore (Unix.select [] [] [] (next_due -. now))
    end
    else begin
      let oldest =
        Array.fold_left (fun acc q -> Hashtbl.fold (fun _ (d, _) m -> Float.min m d) q acc) infinity pending
      in
      if now -. oldest > timeout_s then begin
        (* no reply in time: every outstanding request has timed out *)
        Array.iter
          (fun q ->
            Hashtbl.iter (fun _ (due, _) -> t.failed <- t.failed + 1; miss t ~due) q;
            Hashtbl.reset q)
          pending;
        finished := true
      end
      else begin
        let wait = if next_due < t_end then next_due -. now else timeout_s in
        let fds =
          List.filter_map
            (fun k -> if Hashtbl.length pending.(k) = 0 then None else Some conns.(k).fd)
            (List.init n Fun.id)
        in
        match Unix.select fds [] [] (Float.max 0.0 wait) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | ready, _, _ ->
          Array.iteri
            (fun k c ->
              if List.mem c.fd ready then begin
                let reply = recv c in
                match Hashtbl.find_opt pending.(k) reply.Frame.id with
                | None -> failwith "open loop: reply to no pending request"
                | Some (d, i) ->
                  Hashtbl.remove pending.(k) reply.Frame.id;
                  record t reqs i reply ~due:d
              end)
            conns
      end
    end
  done;
  t

(* {1 Reports}

   This VM loses up to a third of its capacity to the hypervisor for
   seconds at a time, so every phase is cut into time windows and a
   figure is a quantile over the windows: a code change moves every
   window, a neighbour's burst only some.  The closed loop reports each
   0.5 s window's throughput (run.py takes the median over all rounds),
   the open loop the lower quartile of the windows' medians (windows of
   at least 100 requests) and the median of the windows' tails (windows
   of at least 1000 requests; p99 when ten samples lie beyond it, else
   the highest percentile that has ten). *)

(* [t]'s samples split into at most [most] windows of equal length, each
   holding at least [least] samples when the phase has that many. *)
let windows t ~start ~seconds ~least ~most =
  let k = max 1 (min most (List.length t.lat / least)) in
  let w = Array.make k [] in
  List.iter
    (fun (due, ms) ->
      let i = int_of_float ((due -. start) /. seconds *. float_of_int k) in
      let i = max 0 (min (k - 1) i) in
      w.(i) <- ms :: w.(i))
    t.lat;
  Array.to_list w |> List.filter (fun l -> l <> []) |> List.map Util.sorted_of

let latency_report t ~start ~seconds =
  let n = List.length t.lat in
  let mids = windows t ~start ~seconds ~least:100 ~most:20 in
  let tails = windows t ~start ~seconds ~least:1000 ~most:10 in
  let tail a = Util.pct a (Util.tail_q ~n:(Array.length a) 0.99) in
  let q = Util.tail_q ~n:(Array.length (List.hd tails)) 0.99 in
  let late = Util.sorted_of t.late_ms in
  Util.Obj
    [
      ("n", Util.Int n);
      ("windows", Util.Int (List.length mids));
      ("tail_windows", Util.Int (List.length tails));
      ("p50_ms", Util.Num (Util.pct (Util.sorted_of (List.map (fun a -> Util.pct a 0.5) mids)) 0.25));
      ("tail_q", Util.Num q);
      ("tail_ms", Util.Num (Util.median (List.map tail tails)));
      ("late_ms_p99", Util.Num (Util.pct late (Util.tail_q ~n:(Array.length late) 0.99)));
      ("sent", Util.Int t.sent);
      ("failed", Util.Int t.failed);
      ("wrong", Util.Int t.wrong);
      ("queries", Util.Int t.queries);
    ]

let closed_report t ~start ~seconds ~batch =
  let lat = List.map snd t.lat in
  let k = max 1 (int_of_float (seconds /. 0.5)) in
  let per = Array.make k 0 in
  List.iter
    (fun (sent, ms) ->
      if ms < timeout_s *. 1000.0 then begin
        let w = int_of_float ((sent +. (ms /. 1000.0) -. start) /. seconds *. float_of_int k) in
        if w >= 0 && w < k then per.(w) <- per.(w) + batch
      end)
    t.lat;
  let window_qps = Array.to_list (Array.map (fun q -> float_of_int q /. (seconds /. float_of_int k)) per) in
  Util.Obj
    [
      ("window_qps", Util.Arr (List.map (fun q -> Util.Num q) window_qps));
      ("qps_overall", Util.Num (float_of_int t.queries /. seconds));
      ("windows", Util.Int k);
      ("frames", Util.Int t.answered);
      ("mean_rt_ms", Util.Num (Util.mean lat));
      ("p50_ms", Util.Num (Util.median lat));
      ("sent", Util.Int t.sent);
      ("failed", Util.Int t.failed);
      ("wrong", Util.Int t.wrong);
      ("queries", Util.Int t.queries);
    ]
