module Vfs = Hopi_storage.Vfs
module E = Hopi_storage.Storage_error

type mode = Drop_unsynced | Keep_unsynced

exception Crash

type image = { mutable data : Bytes.t; mutable len : int }

type file_state = { durable : image; volatile : image }

type plan =
  | No_fault
  | Crash_at of { op : int; mode : mode; tear : int option }
  | Fail_write of { n : int }
  | Fail_read of { n : int }
  | Torn_read of { n : int; frag : int }

type t = {
  files : (string, file_state) Hashtbl.t;
  mutable ops : int;
  mutable writes : int;
  mutable reads : int;
      (* separate clock: reads are NOT counted ops, so arming read faults
         never shifts the crash-matrix operation indexes *)
  mutable plan : plan;
}

let create () =
  { files = Hashtbl.create 8; ops = 0; writes = 0; reads = 0; plan = No_fault }

let op_count t = t.ops

let write_count t = t.writes

let read_count t = t.reads

let reset_ops t =
  t.ops <- 0;
  t.writes <- 0;
  t.reads <- 0

let arm_crash t ~op ~mode ?tear () = t.plan <- Crash_at { op; mode; tear }

let arm_fail_write t ~n = t.plan <- Fail_write { n }

let arm_fail_read t ~n = t.plan <- Fail_read { n }

let arm_torn_read t ~n ~frag = t.plan <- Torn_read { n; frag }

let disarm t = t.plan <- No_fault

(* {1 Images} *)

let empty_image () = { data = Bytes.create 0; len = 0 }

let img_assign dst src =
  dst.data <- Bytes.copy src.data;
  dst.len <- src.len

let img_reserve img n =
  if Bytes.length img.data < n then begin
    let cap = max 1024 (max n (2 * Bytes.length img.data)) in
    let d = Bytes.make cap '\000' in
    Bytes.blit img.data 0 d 0 img.len;
    img.data <- d
  end

let img_write img buf ~off ~pos ~len =
  img_reserve img (off + len);
  (* a hole between the old end and [off] reads as zeros: the backing
     buffer is zero-initialised and truncation re-zeroes *)
  Bytes.blit buf pos img.data off len;
  if off + len > img.len then img.len <- off + len

let img_truncate img n =
  img_reserve img n;
  if n < img.len then Bytes.fill img.data n (img.len - n) '\000';
  img.len <- n

(* {1 The crash clock} *)

(* resolve the fate of all un-synced data process-wide *)
let survive t mode =
  Hashtbl.iter
    (fun _ st ->
      match mode with
      | Drop_unsynced -> img_assign st.volatile st.durable
      | Keep_unsynced -> img_assign st.durable st.volatile)
    t.files

let crash t mode =
  survive t mode;
  t.plan <- No_fault;
  raise Crash

(* count one non-write operation, crashing first when armed for this index *)
let check_op t =
  (match t.plan with
  | Crash_at { op; mode; _ } when t.ops = op -> crash t mode
  | _ -> ());
  t.ops <- t.ops + 1

(* {1 The Vfs} *)

let file_ops t path st =
  let read buf ~off ~pos ~len =
    (match t.plan with
    | Fail_read { n } when t.reads = n ->
      t.plan <- No_fault;
      t.reads <- t.reads + 1;
      E.raise_error (Io (Printf.sprintf "injected failure on read #%d of %s" n path))
    | _ -> ());
    let torn_frag =
      match t.plan with
      | Torn_read { n; frag } when t.reads = n ->
        t.plan <- No_fault;
        Some frag
      | _ -> None
    in
    t.reads <- t.reads + 1;
    let img = st.volatile in
    if off >= img.len then 0
    else begin
      let n = min len (img.len - off) in
      Bytes.blit img.data off buf pos n;
      (match torn_frag with
      | Some frag when frag < n ->
        (* a torn read: the tail of the transfer never made it out of the
           device — the caller sees stale zeros there.  The byte count is
           still [n]: only checksum verification can tell. *)
        Bytes.fill buf (pos + frag) (n - frag) '\000'
      | _ -> ());
      n
    end
  in
  let write buf ~off ~pos ~len =
    (match t.plan with
    | Fail_write { n } when t.writes = n ->
      t.plan <- No_fault;
      t.writes <- t.writes + 1;
      t.ops <- t.ops + 1;
      E.raise_error (Io (Printf.sprintf "injected failure on write #%d to %s" n path))
    | Crash_at { op; mode; tear } when t.ops = op ->
      survive t mode;
      (match tear with
      | Some k ->
        (* the torn prefix physically reached the platter *)
        let frag = min k len in
        if frag > 0 then begin
          img_write st.durable buf ~off ~pos ~len:frag;
          img_write st.volatile buf ~off ~pos ~len:frag
        end
      | None -> ());
      t.plan <- No_fault;
      raise Crash
    | _ -> ());
    t.writes <- t.writes + 1;
    t.ops <- t.ops + 1;
    img_write st.volatile buf ~off ~pos ~len
  in
  let sync () =
    check_op t;
    img_assign st.durable st.volatile
  in
  let truncate n =
    (* metadata: modelled as atomic and durable (see DESIGN.md) *)
    check_op t;
    img_truncate st.volatile n;
    img_truncate st.durable n
  in
  let size () = st.volatile.len in
  let close () = () in
  { Vfs.read; write; sync; truncate; size; close }

let vfs t =
  let open_file path ~create =
    match Hashtbl.find_opt t.files path with
    | Some st ->
      if create then begin
        (* open-truncate: metadata, atomic and durable *)
        img_truncate st.volatile 0;
        img_truncate st.durable 0
      end;
      file_ops t path st
    | None ->
      if not create then E.raise_error (File_not_found path);
      let st = { durable = empty_image (); volatile = empty_image () } in
      Hashtbl.replace t.files path st;
      file_ops t path st
  in
  let exists path = Hashtbl.mem t.files path in
  let remove path =
    check_op t;
    if not (Hashtbl.mem t.files path) then E.raise_error (File_not_found path);
    Hashtbl.remove t.files path
  in
  let rename ~sync:_ src dst =
    (* metadata: modelled as atomic and durable (see DESIGN.md); a handle
       on the replaced [dst] keeps its old image *)
    check_op t;
    match Hashtbl.find_opt t.files src with
    | None -> E.raise_error (File_not_found src)
    | Some st ->
      Hashtbl.remove t.files src;
      Hashtbl.replace t.files dst st
  in
  let list_dir dir =
    Hashtbl.fold
      (fun path _ acc ->
        if Filename.dirname path = dir then Filename.basename path :: acc else acc)
      t.files []
    |> List.sort compare
  in
  { Vfs.open_file; exists; remove; rename; list_dir }

(* {1 Snapshots and corruption} *)

type snapshot = (string * (Bytes.t * int)) list

let snapshot t =
  Hashtbl.fold
    (fun path st acc -> (path, (Bytes.copy st.durable.data, st.durable.len)) :: acc)
    t.files []

let restore t snap =
  Hashtbl.reset t.files;
  List.iter
    (fun (path, (data, len)) ->
      let st =
        {
          durable = { data = Bytes.copy data; len };
          volatile = { data = Bytes.copy data; len };
        }
      in
      Hashtbl.replace t.files path st)
    snap;
  t.plan <- No_fault

let corrupt_byte t path ~off =
  match Hashtbl.find_opt t.files path with
  | None -> raise Not_found
  | Some st ->
    if off >= st.durable.len || off >= st.volatile.len then raise Not_found;
    let flip img =
      Bytes.set img.data off (Char.chr (Char.code (Bytes.get img.data off) lxor 0x42))
    in
    flip st.durable;
    flip st.volatile

let durable_size t path =
  match Hashtbl.find_opt t.files path with None -> 0 | Some st -> st.durable.len
