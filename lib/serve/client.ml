(* Blocking frame-protocol client (contract in the interface). *)

type t = { fd : Unix.file_descr; mutable next_id : int }

type reply =
  | Answers of int * string list
  | Busy of string
  | Refused of string

let connect fd_domain addr =
  let fd = Unix.socket ~cloexec:true fd_domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd addr
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd; next_id = 1 }

let connect_unix path = connect Unix.PF_UNIX (Unix.ADDR_UNIX path)

let connect_tcp host port =
  connect Unix.PF_INET (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send_raw t b = Frame.write t.fd b

let read_reply ?max_bytes ?expect_id t =
  match Frame.read ?max_bytes t.fd with
  | None -> Error "connection closed by the server"
  | exception End_of_file -> Error "reply truncated"
  | exception Frame.Protocol_error msg -> Error ("malformed reply: " ^ msg)
  | exception Unix.Unix_error (err, fn, _) -> Error (fn ^ ": " ^ Unix.error_message err)
  | Some { Frame.kind; id; payload } -> (
    match expect_id with
    | Some want when id <> want land 0xffffffff ->
      Error (Printf.sprintf "reply id %d does not match request id %d" id want)
    | _ -> (
      match kind with
      | Frame.Response -> (
        match Frame.response_payload payload with
        | Ok (epoch, lines) -> Ok (Answers (epoch, lines))
        | Error e -> Error e)
      | Frame.Busy -> Ok (Busy payload)
      | Frame.Error -> Ok (Refused payload)
      | k -> Error (Format.asprintf "unexpected %a frame from the server" Frame.pp_kind k)))

let roundtrip ?max_bytes t ~id frame =
  match Frame.write t.fd frame with
  | () -> read_reply ?max_bytes ~expect_id:id t
  | exception Unix.Unix_error (err, fn, _) -> Error (fn ^ ": " ^ Unix.error_message err)

let request ?max_bytes t lines =
  let id = t.next_id in
  t.next_id <- id + 1;
  roundtrip ?max_bytes t ~id (Frame.request ~id lines)

let control ?max_bytes t cmd =
  let id = t.next_id in
  t.next_id <- id + 1;
  roundtrip ?max_bytes t ~id (Frame.control ~id cmd)
