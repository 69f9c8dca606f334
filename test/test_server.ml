(* Socket front-end tests: Hopi_serve.{Repl,Frame,Server,Client}.

   Five layers:

   - Repl unit tests (the stdin/stdout loop extracted from the CLI): EOF
     and [quit] drain pending queries and end cleanly, a dead writer is a
     clean [Output_closed] outcome, control commands observe a drained
     queue, and nothing escapes as an exception;
   - deterministic protocol tests over a real Unix-socket server:
     request/control round-trips, typed error frames for malformed input,
     admission-control busy frames, request-context (connection id,
     queue wait) attribution into Reqtrace samples;
   - a qcheck protocol fuzz: random malformed/truncated/oversized frames
     and mid-frame disconnects never crash the server or poison other
     connections — a valid request on a fresh connection always still
     answers;
   - frame workers: frames of different connections run in parallel,
     one connection's frames and control ops keep their order under
     another's flood, [stop] drains, and counts stay exact;
   - the concurrent soak: client domains hammer a two-worker server
     while live churn flips generations underneath; every answer must
     match the oracle matrix of the generation (epoch) that served it.

   HOPI_SOAK_ITERS (flips, default 8) and HOPI_SOAK_CLIENTS (client
   domains, default 3) scale the soak; CI runs it larger. *)

module Frame = Hopi_serve.Frame
module Server = Hopi_serve.Server
module Client = Hopi_serve.Client
module Repl = Hopi_serve.Repl
module Batch = Hopi_serve.Batch
module G = Hopi_serve.Generation
module Snapshot = Hopi_serve.Snapshot
module Manifest = Hopi_storage.Manifest
module Collection = Hopi_collection.Collection
module Dblp = Hopi_workload.Dblp_gen
module Splitmix = Hopi_util.Splitmix
module Ihs = Hopi_util.Int_hashset
module Rt = Hopi_obs.Reqtrace
module Hopi = Hopi_core.Hopi
module Gen = QCheck2.Gen

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let soak_iters =
  match Sys.getenv_opt "HOPI_SOAK_ITERS" with
  | Some s -> (try max 3 (int_of_string s) with _ -> 8)
  | None -> 8

let soak_clients =
  match Sys.getenv_opt "HOPI_SOAK_CLIENTS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 3)
  | None -> 3

(* {1 Repl: the serve loop in isolation} *)

let scripted lines =
  let rem = ref lines in
  fun () ->
    match !rem with
    | [] -> None
    | x :: tl ->
      rem := tl;
      Some x

let collecting () =
  let buf = ref [] in
  ((fun line -> buf := line :: !buf), fun () -> List.rev !buf)

let echo_eval batches queries =
  batches := Array.length queries :: !batches;
  Array.map (fun _ -> Batch.Bool true) queries

let no_control _ = None

let run_repl ?(batch_size = 1) ?(control = no_control) lines =
  let write, written = collecting () in
  let batches = ref [] in
  let st =
    Repl.run ~batch_size ~read_line:(scripted lines) ~write_line:write
      ~eval:(echo_eval batches) ~control ()
  in
  (st, written (), List.rev !batches)

let test_repl_eof_drains () =
  (* EOF mid-batch: both queued queries are still answered *)
  let st, out, batches = run_repl ~batch_size:10 [ "reach 0 1"; "reach 1 2" ] in
  checki "served" 2 st.Repl.served;
  checkb "outcome is Eof" true (st.Repl.outcome = Repl.Eof);
  check Alcotest.(list string) "answers written" [ "true"; "true" ] out;
  check Alcotest.(list int) "one drained batch" [ 2 ] batches

let test_repl_quit_drains () =
  let st, out, _ =
    run_repl ~batch_size:10 [ "reach 0 1"; "quit"; "reach 9 9" ] in
  checkb "outcome is Quit" true (st.Repl.outcome = Repl.Quit);
  checki "pending answered, post-quit line unread" 1 st.Repl.served;
  check Alcotest.(list string) "answer before quit" [ "true" ] out

let test_repl_reader_error_is_eof () =
  let reads = ref 0 in
  let read_line () =
    incr reads;
    if !reads = 1 then Some "reach 0 1" else raise (Sys_error "bad read")
  in
  let write, written = collecting () in
  let batches = ref [] in
  let st =
    Repl.run ~batch_size:5 ~read_line ~write_line:write
      ~eval:(echo_eval batches) ~control:no_control ()
  in
  checkb "a broken input stream is EOF" true (st.Repl.outcome = Repl.Eof);
  check Alcotest.(list string) "pending drained" [ "true" ] (written ())

let test_repl_output_closed () =
  let write _ = raise (Sys_error "Broken pipe") in
  let batches = ref [] in
  let st =
    Repl.run ~read_line:(scripted [ "reach 0 1"; "reach 1 2" ])
      ~write_line:write ~eval:(echo_eval batches) ~control:no_control ()
  in
  (match st.Repl.outcome with
  | Repl.Output_closed reason -> check Alcotest.string "reason" "Broken pipe" reason
  | _ -> Alcotest.fail "expected Output_closed");
  checki "nothing served through a dead pipe" 0 st.Repl.served

let test_repl_control_sees_drained_queue () =
  let served_at_ctrl = ref (-1) in
  let batches = ref [] in
  let control = function
    | "probe" ->
      Some
        (fun () ->
          served_at_ctrl := List.fold_left ( + ) 0 !batches;
          "probed")
    | _ -> None
  in
  let st, out, batches' =
    let write, written = collecting () in
    let st =
      Repl.run ~batch_size:10
        ~read_line:(scripted [ "reach 0 1"; "reach 1 2"; "probe"; "reach 2 3" ])
        ~write_line:write ~eval:(echo_eval batches) ~control ()
    in
    (st, written (), List.rev !batches)
  in
  checkb "ended at EOF" true (st.Repl.outcome = Repl.Eof);
  check Alcotest.(list string) "control reply lands in input order"
    [ "true"; "true"; "probed"; "true" ]
    out;
  check Alcotest.(list int) "queue drained before the thunk ran, then again at EOF"
    [ 2; 1 ] batches';
  checki "thunk observed both earlier queries evaluated" 2 !served_at_ctrl

let test_repl_control_raising_answers_error () =
  let control = function
    | "boom" -> Some (fun () -> failwith "kaput")
    | _ -> None
  in
  let st, out, _ = run_repl ~control [ "boom"; "reach 0 1" ] in
  checkb "loop survives the thunk" true (st.Repl.outcome = Repl.Eof);
  (match out with
  | [ err; "true" ] ->
    checkb "error line" true (String.length err > 6 && String.sub err 0 6 = "error:")
  | _ -> Alcotest.failf "unexpected output: %s" (String.concat " | " out))

let test_repl_parse_error_and_comments () =
  let st, out, _ =
    run_repl [ ""; "   "; "# comment"; "bogus stuff"; "reach 0 1" ]
  in
  checki "only the valid query served" 1 st.Repl.served;
  (match out with
  | [ err; "true" ] ->
    checkb "parse failure answers error:" true
      (String.length err > 6 && String.sub err 0 6 = "error:")
  | _ -> Alcotest.failf "unexpected output: %s" (String.concat " | " out))

(* {1 A real server over a Unix socket} *)

let with_temp_dir f =
  let dir = Filename.temp_file "hopi_server" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun name ->
            try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Sys.rmdir dir with Sys_error _ -> ()
      end)
    (fun () -> f dir)

let with_server ?workers ?max_inflight ?queue_depth ?max_frame_bytes handler f =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "s.sock" in
  let srv = Server.create ?workers ?max_inflight ?queue_depth ?max_frame_bytes handler in
  ignore (Server.add_listener srv (Server.Unix_socket path) : Unix.sockaddr);
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f path srv)

(* answers [true] per query line at epoch 7; control knows [ping] *)
let echo_handler =
  {
    Server.eval =
      (fun ~ctx:_ queries -> (7, Array.map (fun _ -> Batch.Bool true) queries));
    control =
      (fun cmd ->
        if String.trim cmd = "ping" then Ok "pong"
        else Error ("unknown control " ^ cmd));
  }

let expect_answers what = function
  | Ok (Client.Answers (epoch, lines)) -> (epoch, lines)
  | Ok (Client.Busy msg) -> Alcotest.failf "%s: busy (%s)" what msg
  | Ok (Client.Refused msg) -> Alcotest.failf "%s: refused (%s)" what msg
  | Error e -> Alcotest.failf "%s: %s" what e

let raw_frame ~len ~kind ~id payload =
  let b = Buffer.create (9 + String.length payload) in
  Buffer.add_int32_be b (Int32.of_int len);
  Buffer.add_char b kind;
  Buffer.add_int32_be b (Int32.of_int id);
  Buffer.add_string b payload;
  Buffer.to_bytes b

let test_server_roundtrip () =
  with_server echo_handler @@ fun path srv ->
  let cl = Client.connect_unix path in
  Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
  let epoch, lines =
    expect_answers "request" (Client.request cl [ "reach 0 1"; "reach 1 2" ])
  in
  checki "handler epoch echoed" 7 epoch;
  check Alcotest.(list string) "one line per query" [ "true"; "true" ] lines;
  (* blank and comment lines inside the frame are skipped, like stdin *)
  let _, lines2 =
    expect_answers "request with comments"
      (Client.request cl [ ""; "# hi"; "reach 3 4" ])
  in
  check Alcotest.(list string) "comments skipped" [ "true" ] lines2;
  (* a parse failure answers in its slot; valid queries still evaluate *)
  let _, lines3 =
    expect_answers "mixed batch" (Client.request cl [ "bogus"; "reach 0 1" ])
  in
  (match lines3 with
  | [ err; "true" ] ->
    checkb "slot error" true (String.length err > 6 && String.sub err 0 6 = "error:")
  | _ -> Alcotest.failf "unexpected: %s" (String.concat " | " lines3));
  (* control plane *)
  (match Client.control cl "ping" with
  | Ok (Client.Answers (0, [ "pong" ])) -> ()
  | r ->
    Alcotest.failf "ping: %s"
      (match r with
      | Ok (Client.Answers (e, l)) ->
        Printf.sprintf "epoch %d: %s" e (String.concat "|" l)
      | Ok (Client.Busy m) | Ok (Client.Refused m) -> m
      | Error e -> e));
  (match Client.control cl "nope" with
  | Ok (Client.Refused _) -> ()
  | _ -> Alcotest.fail "unknown control must answer an error frame");
  (* [served] increments after the reply bytes go out, so the last
     reply can be observed before its own tick — all *earlier* requests
     are guaranteed counted *)
  checkb "requests counted" true (Server.requests_served srv >= 4)

let test_server_unknown_kind_recoverable () =
  with_server echo_handler @@ fun path _srv ->
  let cl = Client.connect_unix path in
  Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
  Client.send_raw cl (raw_frame ~len:8 ~kind:'Z' ~id:9 "abc");
  (match Client.read_reply cl with
  | Ok (Client.Refused msg) ->
    checkb "names the kind" true
      (String.length msg > 0 && String.lowercase_ascii msg <> "")
  | r ->
    Alcotest.failf "expected an error frame, got %s"
      (match r with Ok _ -> "another reply" | Error e -> e));
  (* the stream stayed in sync: the same connection still serves *)
  let _, lines = expect_answers "after unknown kind" (Client.request cl [ "reach 0 1" ]) in
  check Alcotest.(list string) "served" [ "true" ] lines

let test_server_client_kind_frames_survive () =
  with_server echo_handler @@ fun path _srv ->
  let cl = Client.connect_unix path in
  Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
  Client.send_raw cl (Frame.busy ~id:3 "i am not a server");
  (match Client.read_reply cl with
  | Ok (Client.Refused _) -> ()
  | _ -> Alcotest.fail "client-kind frame must answer an error frame");
  let _, lines = expect_answers "after busy frame" (Client.request cl [ "reach 0 1" ]) in
  check Alcotest.(list string) "served" [ "true" ] lines

let test_server_bad_length_closes () =
  with_server echo_handler @@ fun path _srv ->
  let cl = Client.connect_unix path in
  Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
  Client.send_raw cl (raw_frame ~len:2 ~kind:'Q' ~id:1 "");
  (match Client.read_reply cl with
  | Ok (Client.Refused _) -> ()
  | r ->
    Alcotest.failf "expected an error frame, got %s"
      (match r with Ok _ -> "another reply" | Error e -> e));
  (match Client.read_reply cl with
  | Error _ -> () (* resync impossible: server closed the stream *)
  | Ok _ -> Alcotest.fail "expected the connection to close")

let test_server_oversized_frame_closes () =
  with_server ~max_frame_bytes:1024 echo_handler @@ fun path _srv ->
  let cl = Client.connect_unix path in
  Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
  Client.send_raw cl (raw_frame ~len:1_000_000 ~kind:'Q' ~id:1 "");
  (match Client.read_reply cl with
  | Ok (Client.Refused _) -> ()
  | r ->
    Alcotest.failf "expected an error frame, got %s"
      (match r with Ok _ -> "another reply" | Error e -> e));
  (match Client.read_reply cl with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected the connection to close")

let test_server_admission_busy () =
  let slow =
    {
      echo_handler with
      Server.eval =
        (fun ~ctx:_ queries ->
          Unix.sleepf 0.15;
          (7, Array.map (fun _ -> Batch.Bool true) queries));
    }
  in
  with_server ~max_inflight:1 ~queue_depth:4 slow @@ fun path _srv ->
  let cl = Client.connect_unix path in
  Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
  (* two back-to-back requests: the first is admitted and evaluating, the
     second must bounce off max-inflight with a busy frame *)
  Client.send_raw cl (Frame.request ~id:1 [ "reach 0 1" ]);
  Client.send_raw cl (Frame.request ~id:2 [ "reach 0 1" ]);
  let r1 = Client.read_reply cl in
  let r2 = Client.read_reply cl in
  let classify = function
    | Ok (Client.Answers _) -> `A
    | Ok (Client.Busy _) -> `B
    | Ok (Client.Refused m) -> Alcotest.failf "refused: %s" m
    | Error e -> Alcotest.failf "conversation broke: %s" e
  in
  (match (classify r1, classify r2) with
  | `B, `A | `A, `B -> ()
  | `A, `A -> Alcotest.fail "second request should have been rejected busy"
  | `B, `B -> Alcotest.fail "at least one request should have been served");
  (* the rejected frame was not dropped silently and the connection is
     healthy: the next request serves normally *)
  let _, lines = expect_answers "after busy" (Client.request cl [ "reach 0 1" ]) in
  check Alcotest.(list string) "served" [ "true" ] lines

let test_server_ctx_reaches_reqtrace () =
  (* the socket path must attribute connection id and queue wait into
     Reqtrace samples end to end *)
  Rt.reset_slowlog ();
  Rt.set_slow_threshold_ns 0;
  Fun.protect ~finally:(fun () -> Rt.disable_slowlog ()) @@ fun () ->
  let eval ~ctx queries =
    (7, Array.map (fun q -> Batch.eval_engine ~ctx
                     {
                       Batch.connected = (fun _ _ -> true);
                       min_distance = (fun _ _ -> Some 0);
                       descendants = (fun ?f:_ _ -> 0);
                       ancestors = (fun ?f:_ _ -> 0);
                       path_eval = None;
                     }
                     q) queries)
  in
  with_server { echo_handler with Server.eval } @@ fun path _srv ->
  let cl = Client.connect_unix path in
  Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
  let _, _ = expect_answers "traced" (Client.request cl [ "reach 1 2" ]) in
  let samples = Rt.slowlog () in
  checkb "a sample was captured" true (samples <> []);
  checkb "sample carries the connection id" true
    (List.exists (fun s -> s.Rt.conn > 0 && s.Rt.queue_wait_ns >= 0) samples)

(* {1 Frame workers}

   Frames are served whole by [workers] workers sharing one ready queue;
   frames of one connection stay in order. *)

(* Poll [pred] until it holds or [timeout] seconds pass; its last value. *)
let wait_for ?(timeout = 5.0) pred =
  let deadline = Unix.gettimeofday () +. timeout in
  while (not (pred ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  pred ()

(* the reply frame to request [id], its rendered lines *)
let read_lines_of cl ~id =
  match Client.read_reply ~expect_id:id cl with
  | Ok (Client.Answers (_, lines)) -> lines
  | Ok _ -> Alcotest.failf "reply %d: not an answer frame" id
  | Error e -> Alcotest.failf "reply %d: %s" id e

let test_server_frames_in_parallel () =
  (* A's frame holds its worker until B's frame has started: with one
     frame at a time (a global eval lock) it would time out and answer
     false *)
  let a_started = Atomic.make false and b_started = Atomic.make false in
  let eval ~ctx:_ queries =
    match queries with
    | [| Batch.Reach (1, _) |] ->
      Atomic.set a_started true;
      (7, [| Batch.Bool (wait_for (fun () -> Atomic.get b_started)) |])
    | _ ->
      Atomic.set b_started true;
      (7, Array.map (fun _ -> Batch.Bool true) queries)
  in
  with_server ~workers:2 { echo_handler with Server.eval } @@ fun path _srv ->
  let a = Client.connect_unix path and b = Client.connect_unix path in
  Fun.protect ~finally:(fun () -> Client.close a; Client.close b) @@ fun () ->
  Client.send_raw a (Frame.request ~id:1 [ "reach 1 0" ]);
  checkb "A's frame started" true (wait_for (fun () -> Atomic.get a_started));
  let _, lines = expect_answers "B" (Client.request b [ "reach 2 0" ]) in
  check Alcotest.(list string) "B served while A waits" [ "true" ] lines;
  check Alcotest.(list string) "A saw B start" [ "true" ] (read_lines_of a ~id:1)

let test_server_fifo_under_flood () =
  (* one connection pipelines queries and control ops while another
     floods: its replies come back in send order and its controls apply
     in order *)
  let applied = ref [] in
  let eval ~ctx:_ queries =
    ( 7,
      Array.map (function Batch.Reach (u, _) -> Batch.Count u | _ -> Batch.Failed "?") queries )
  in
  let control cmd =
    match String.split_on_char ' ' (String.trim cmd) with
    | [ "set"; k ] ->
      applied := int_of_string k :: !applied;
      Ok ("set " ^ k)
    | _ -> Error "unknown"
  in
  with_server ~workers:2 ~max_inflight:1024 ~queue_depth:512 { Server.eval; control }
  @@ fun path _srv ->
  let stop = Atomic.make false and flooded = Atomic.make 0 in
  let flood =
    Domain.spawn (fun () ->
        let cl = Client.connect_unix path in
        Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
        while not (Atomic.get stop) do
          match Client.request cl [ "reach 9 0"; "reach 9 1" ] with
          | Ok (Client.Answers (_, [ "9"; "9" ])) -> Atomic.incr flooded
          | _ -> Atomic.set stop true
        done)
  in
  let n = 300 in
  let cl = Client.connect_unix path in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join flood;
      Client.close cl)
  @@ fun () ->
  checkb "the flood runs" true (wait_for (fun () -> Atomic.get flooded > 0));
  let is_control i = i mod 7 = 0 in
  for i = 1 to n do
    Client.send_raw cl
      (if is_control i then Frame.control ~id:i (Printf.sprintf "set %d" i)
       else Frame.request ~id:i [ Printf.sprintf "reach %d 0" i ])
  done;
  for i = 1 to n do
    let want = if is_control i then Printf.sprintf "set %d" i else string_of_int i in
    check Alcotest.(list string) (Printf.sprintf "reply %d" i) [ want ] (read_lines_of cl ~id:i)
  done;
  checkb "the flood kept being served" true (Atomic.get flooded > 1);
  check Alcotest.(list int) "controls applied in send order"
    (List.filter is_control (List.init n (fun i -> i + 1)))
    (List.rev !applied)

let test_server_stop_drains () =
  (* frames still queued when [stop] begins are answered, and [stop]
     returns only once no worker is left evaluating *)
  let running = Atomic.make 0 in
  let eval ~ctx:_ queries =
    Atomic.incr running;
    Unix.sleepf 0.01;
    Atomic.decr running;
    (7, Array.map (fun _ -> Batch.Bool true) queries)
  in
  let admitted = Hopi_obs.Registry.counter "hopi_server_requests_total" in
  let k = 12 in
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "s.sock" in
  let srv = Server.create ~workers:2 { echo_handler with Server.eval } in
  ignore (Server.add_listener srv (Server.Unix_socket path) : Unix.sockaddr);
  let clients = List.init 2 (fun _ -> Client.connect_unix path) in
  Fun.protect ~finally:(fun () -> List.iter Client.close clients) @@ fun () ->
  let before = Hopi_obs.Counter.get admitted in
  List.iter
    (fun cl ->
      for i = 1 to k do
        Client.send_raw cl (Frame.request ~id:i [ "reach 0 1" ])
      done)
    clients;
  checkb "every frame admitted" true
    (wait_for (fun () -> Hopi_obs.Counter.get admitted - before = 2 * k));
  Server.stop srv;
  checki "no evaluation outlives stop" 0 (Atomic.get running);
  checki "every admitted frame served" (2 * k) (Server.requests_served srv);
  List.iter
    (fun cl ->
      for i = 1 to k do
        check Alcotest.(list string) "answered" [ "true" ] (read_lines_of cl ~id:i)
      done)
    clients

let test_server_stats_exact () =
  (* the serve loop's count: frames of two connections evaluate at once,
     and [stats] afterwards reports exactly what they sent *)
  let served = Atomic.make 0 in
  let eval ~ctx:_ queries =
    ignore (Atomic.fetch_and_add served (Array.length queries));
    (7, Array.map (fun _ -> Batch.Bool true) queries)
  in
  let control = function
    | "stats" -> Ok (Printf.sprintf "served %d" (Atomic.get served))
    | _ -> Error "unknown"
  in
  with_server ~workers:2 { Server.eval; control } @@ fun path _srv ->
  let k = 200 and per_frame = 5 in
  let client () =
    Domain.spawn (fun () ->
        let cl = Client.connect_unix path in
        Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
        for _ = 1 to k do
          ignore (expect_answers "frame" (Client.request cl (List.init per_frame (fun _ -> "reach 0 1"))))
        done)
  in
  List.iter Domain.join [ client (); client () ];
  let cl = Client.connect_unix path in
  Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
  check Alcotest.(list string) "exact sum" [ Printf.sprintf "served %d" (2 * k * per_frame) ]
    (snd (expect_answers "stats" (Client.control cl "stats")))

(* {1 Protocol fuzz}

   Random hostile byte streams.  The server may answer a typed error
   frame and may close the hostile connection — but must never crash,
   hang, or poison an innocent connection opened right after. *)

type attack =
  | Garbage of string
  | Bad_length of int
  | Oversized of int
  | Unknown_kind of char * string
  | Truncated of int * string
  | Client_kind of int

let pp_attack = function
  | Garbage s -> Printf.sprintf "garbage(%d bytes)" (String.length s)
  | Bad_length n -> Printf.sprintf "bad-length(%d)" n
  | Oversized n -> Printf.sprintf "oversized(%d)" n
  | Unknown_kind (c, _) -> Printf.sprintf "unknown-kind(%C)" c
  | Truncated (claim, s) -> Printf.sprintf "truncated(%d of %d)" (String.length s) claim
  | Client_kind id -> Printf.sprintf "client-kind(id %d)" id

let gen_attack =
  let open Gen in
  oneof
    [
      (string_size ~gen:(char_range '\000' '\255') (int_range 0 48) >|= fun s -> Garbage s);
      (int_range 0 4 >|= fun n -> Bad_length n);
      (int_range 5_000 100_000 >|= fun n -> Oversized n);
      ( pair (char_range 'a' 'z') (string_size (int_range 0 20)) >|= fun (c, s) ->
        Unknown_kind (c, s) );
      ( pair (int_range 20 200) (string_size (int_range 0 10)) >|= fun (claim, s) ->
        Truncated (claim, s) );
      (int_range 0 1000 >|= fun id -> Client_kind id);
    ]

let attack_bytes = function
  | Garbage s -> Bytes.of_string s
  | Bad_length n -> raw_frame ~len:n ~kind:'Q' ~id:1 ""
  | Oversized n -> raw_frame ~len:n ~kind:'Q' ~id:1 ""
  | Unknown_kind (c, payload) ->
    raw_frame ~len:(5 + String.length payload) ~kind:c ~id:2 payload
  | Truncated (claim, partial) -> raw_frame ~len:claim ~kind:'Q' ~id:3 partial
  | Client_kind id -> Frame.error ~id "spoofed"

let prop_fuzz_never_poisons =
  QCheck2.Test.make ~name:"hostile frames never crash or poison the server"
    ~count:8
    Gen.(list_size (int_range 1 10) gen_attack)
    (fun attacks ->
      with_server ~max_frame_bytes:4096 echo_handler @@ fun path _srv ->
      List.iter
        (fun attack ->
          let hostile = Client.connect_unix path in
          (try Client.send_raw hostile (attack_bytes attack)
           with Unix.Unix_error _ -> () (* server already hung up: fine *));
          (* an innocent connection opened while the hostile one is still
             open must serve normally *)
          let innocent = Client.connect_unix path in
          (match Client.request innocent [ "reach 0 1" ] with
          | Ok (Client.Answers (7, [ "true" ])) -> ()
          | Ok (Client.Answers _) ->
            QCheck2.Test.fail_reportf "%s: wrong answer on innocent connection"
              (pp_attack attack)
          | Ok (Client.Busy m) | Ok (Client.Refused m) ->
            QCheck2.Test.fail_reportf "%s: innocent connection got %s"
              (pp_attack attack) m
          | Error e ->
            QCheck2.Test.fail_reportf "%s: innocent connection broke: %s"
              (pp_attack attack) e);
          Client.close innocent;
          (* mid-frame disconnect for Truncated and friends *)
          Client.close hostile)
        attacks;
      true)

(* {1 The concurrent soak}

   A generation family serves over the socket; [soak_clients] domains
   hammer it with reach batches while the main thread applies link churn
   and flips.  The epoch in each response frame selects the oracle matrix
   the answers must match — a response computed on generation [g] must be
   exactly generation [g]'s truth, no matter when the flip landed. *)

let with_gen_base f =
  let base = Filename.temp_file "hopi_test_server" ".db" in
  Sys.remove base;
  Fun.protect
    ~finally:(fun () ->
      let rm p = if Sys.file_exists p then Sys.remove p in
      rm (Manifest.path ~base);
      for k = 0 to 64 do
        rm (Manifest.gen_path ~base k)
      done)
    (fun () -> f base)

let elements c =
  let acc = ref [] in
  Collection.iter_elements c (fun e -> acc := e :: !acc);
  Array.of_list (List.sort compare !acc)

let test_socket_soak () =
  with_gen_base @@ fun base ->
  let c = Dblp.generate (Dblp.default ~n_docs:6) in
  let idx = Hopi.create c in
  let gen = G.create ~fsync:false ~cache_mb:8 ~base idx in
  let dom = elements c in
  let n = Array.length dom in
  let matrix () =
    Array.map (fun u -> Array.map (fun v -> Hopi.connected idx u v) dom) dom
  in
  let max_gens = (2 * soak_iters) + 8 in
  let oracles = Array.make max_gens None in
  oracles.(0) <- Some (matrix ());
  let stop = Atomic.make false in
  let total = Atomic.make 0 in
  let busy = Atomic.make 0 in
  let failures = Atomic.make 0 in
  let err_mu = Mutex.create () in
  let errs = ref [] in
  let record_err msg =
    Atomic.incr failures;
    Mutex.lock err_mu;
    if List.length !errs < 5 then errs := msg :: !errs;
    Mutex.unlock err_mu
  in
  let epochs = Array.init soak_clients (fun _ -> Ihs.create ()) in
  (* frames of different clients evaluate at once, on two workers *)
  let eval ~ctx queries =
    G.with_snapshot gen (fun snap ->
        ( Snapshot.epoch snap,
          Batch.eval_frame ~ctx (Batch.engine_of_snapshot snap) queries ))
  in
  let handler = { Server.eval; control = (fun _ -> Error "no control") } in
  with_server ~workers:2 ~max_inflight:256 ~queue_depth:64 handler @@ fun path srv ->
  let client k =
    Domain.spawn (fun () ->
        let rng = Splitmix.create (0x50AB0 lxor (k * 7919)) in
        let seen = epochs.(k) in
        try
          let cl = Client.connect_unix path in
          Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
          while not (Atomic.get stop) do
            let pairs =
              List.init 12 (fun _ ->
                  (Splitmix.int rng n, Splitmix.int rng n))
            in
            let lines =
              List.map
                (fun (i, j) -> Printf.sprintf "reach %d %d" dom.(i) dom.(j))
                pairs
            in
            match Client.request cl lines with
            | Ok (Client.Answers (epoch, answers)) -> (
              Ihs.add seen epoch;
              if List.length answers <> List.length pairs then
                record_err
                  (Printf.sprintf "client %d: %d answers to %d queries" k
                     (List.length answers) (List.length pairs))
              else
                match
                  if epoch < 0 || epoch >= max_gens then None
                  else oracles.(epoch)
                with
                | None ->
                  record_err
                    (Printf.sprintf "client %d: no oracle for epoch %d" k epoch)
                | Some m ->
                  List.iter2
                    (fun (i, j) got ->
                      let want = string_of_bool m.(i).(j) in
                      if got <> want then
                        record_err
                          (Printf.sprintf
                             "client %d: epoch %d answers %d -> %d as %s, \
                              oracle says %s"
                             k epoch dom.(i) dom.(j) got want);
                      Atomic.incr total)
                    pairs answers)
            | Ok (Client.Busy _) ->
              Atomic.incr busy;
              Unix.sleepf 0.002
            | Ok (Client.Refused msg) ->
              record_err (Printf.sprintf "client %d: refused: %s" k msg)
            | Error e ->
              if not (Atomic.get stop) then
                record_err (Printf.sprintf "client %d: %s" k e)
          done
        with exn ->
          record_err
            (Printf.sprintf "client %d died: %s" k (Printexc.to_string exn)))
  in
  let clients = List.init soak_clients client in
  let finished = ref false in
  let finish () =
    if not !finished then begin
      finished := true;
      Atomic.set stop true;
      List.iter Domain.join clients
    end
  in
  Fun.protect ~finally:(fun () -> G.close gen) @@ fun () ->
  Fun.protect ~finally:finish @@ fun () ->
  let wait_queries target =
    while Atomic.get total < target && Atomic.get failures = 0 do
      Domain.cpu_relax ()
    done
  in
  wait_queries (24 * soak_clients);
  let rng = Splitmix.create 99 in
  let links = ref [] in
  let flips = ref 0 in
  while !flips < soak_iters && Atomic.get failures = 0 do
    for _ = 1 to 5 do
      match !links with
      | (u, v) :: rest when Splitmix.int rng 4 = 0 ->
        links := rest;
        ignore (G.apply gen (G.Del_link (u, v)))
      | _ ->
        let u = dom.(Splitmix.int rng n) and v = dom.(Splitmix.int rng n) in
        (match G.apply gen (G.Add_link (u, v)) with
        | Ok _ -> links := (u, v) :: !links
        | Error _ -> ())
    done;
    let g_next = G.tip gen + 1 in
    oracles.(g_next) <- Some (matrix ());
    let st = G.flip gen in
    checki "flip publishes the announced generation" g_next st.G.generation;
    incr flips;
    wait_queries (Atomic.get total + (96 * soak_clients))
  done;
  finish ();
  (match !errs with
  | [] -> ()
  | msgs ->
    Alcotest.failf "%d soak failures, e.g.:\n  %s" (Atomic.get failures)
      (String.concat "\n  " (List.rev msgs)));
  checki "zero inconsistent answers" 0 (Atomic.get failures);
  checkb "flips happened" true (!flips >= 3);
  checkb "clients made progress" true (Atomic.get total > 0);
  checkb "server served the load" true (Server.requests_served srv > 0);
  let distinct =
    let u = Ihs.create () in
    Array.iter (fun s -> List.iter (Ihs.add u) (Ihs.to_list s)) epochs;
    List.length (Ihs.to_list u)
  in
  checkb "responses spanned multiple generations" true (distinct >= 2)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "serve.repl",
      [
        Alcotest.test_case "EOF drains pending queries" `Quick test_repl_eof_drains;
        Alcotest.test_case "quit drains and stops" `Quick test_repl_quit_drains;
        Alcotest.test_case "broken input stream is EOF" `Quick
          test_repl_reader_error_is_eof;
        Alcotest.test_case "dead writer is a clean Output_closed" `Quick
          test_repl_output_closed;
        Alcotest.test_case "control commands observe a drained queue" `Quick
          test_repl_control_sees_drained_queue;
        Alcotest.test_case "a raising control thunk answers error:" `Quick
          test_repl_control_raising_answers_error;
        Alcotest.test_case "parse errors, blanks and comments" `Quick
          test_repl_parse_error_and_comments;
      ] );
    ( "serve.socket",
      [
        Alcotest.test_case "request/control round-trip" `Quick test_server_roundtrip;
        Alcotest.test_case "unknown frame kind is recoverable" `Quick
          test_server_unknown_kind_recoverable;
        Alcotest.test_case "client-kind frames answer errors, stream survives"
          `Quick test_server_client_kind_frames_survive;
        Alcotest.test_case "unbelievable length closes the stream" `Quick
          test_server_bad_length_closes;
        Alcotest.test_case "oversized frame closes the stream" `Quick
          test_server_oversized_frame_closes;
        Alcotest.test_case "admission control answers busy" `Quick
          test_server_admission_busy;
        Alcotest.test_case "connection id and queue wait reach Reqtrace" `Quick
          test_server_ctx_reaches_reqtrace;
        Alcotest.test_case "frames of two connections run in parallel" `Quick
          test_server_frames_in_parallel;
        Alcotest.test_case "pipelined frames and controls stay in order under a flood"
          `Quick test_server_fifo_under_flood;
        Alcotest.test_case "stop answers every admitted frame and joins the workers"
          `Quick test_server_stop_drains;
        Alcotest.test_case "stats is exact under concurrent clients" `Quick
          test_server_stats_exact;
      ]
      @ qsuite [ prop_fuzz_never_poisons ] );
    ( "serve.socket-soak",
      [ Alcotest.test_case "churn under socket load" `Slow test_socket_soak ] );
  ]
