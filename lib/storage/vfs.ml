type file = {
  read : Bytes.t -> off:int -> pos:int -> len:int -> int;
  write : Bytes.t -> off:int -> pos:int -> len:int -> unit;
  sync : unit -> unit;
  truncate : int -> unit;
  size : unit -> int;
  close : unit -> unit;
}

type t = {
  open_file : string -> create:bool -> file;
  exists : string -> bool;
  remove : string -> unit;
  rename : sync:bool -> string -> string -> unit;
  list_dir : string -> string list;
}

let read_full f buf ~off ~pos ~len =
  let rec go pos len total =
    if len = 0 then total
    else
      let n = f.read buf ~off:(off + total) ~pos ~len in
      if n = 0 then total else go (pos + n) (len - n) (total + n)
  in
  go pos len 0

(* {1 Real file system} *)

let io fmt = Printf.ksprintf (fun m -> Storage_error.raise_error (Io m)) fmt

let wrap op path f =
  try f ()
  with Unix.Unix_error (e, _, _) -> io "%s %s: %s" op path (Unix.error_message e)

(* a rename is durable once the directory entry is: fsync the parent
   (file systems that cannot fsync a directory answer EINVAL, and have
   nothing more to flush) *)
let sync_dir path =
  let dir = Filename.dirname path in
  let fd =
    try Unix.openfile dir [ Unix.O_RDONLY ] 0
    with Unix.Unix_error (e, _, _) -> io "open %s: %s" dir (Unix.error_message e)
  in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  try Unix.fsync fd with
  | Unix.Unix_error (Unix.EINVAL, _, _) -> ()
  | Unix.Unix_error (e, _, _) -> io "fsync %s: %s" dir (Unix.error_message e)

let real =
  let open_file path ~create =
    let flags =
      if create then [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] else [ Unix.O_RDWR ]
    in
    let fd =
      try Unix.openfile path flags 0o600
      with
      | Unix.Unix_error (Unix.ENOENT, _, _) ->
        Storage_error.raise_error (File_not_found path)
      | Unix.Unix_error (e, _, _) -> io "open %s: %s" path (Unix.error_message e)
    in
    {
      read =
        (fun buf ~off ~pos ~len ->
          wrap "read" path (fun () ->
              ignore (Unix.lseek fd off Unix.SEEK_SET);
              Unix.read fd buf pos len));
      write =
        (fun buf ~off ~pos ~len ->
          wrap "write" path (fun () ->
              ignore (Unix.lseek fd off Unix.SEEK_SET);
              let rec go pos len =
                if len > 0 then begin
                  let n = Unix.write fd buf pos len in
                  go (pos + n) (len - n)
                end
              in
              go pos len));
      sync = (fun () -> wrap "fsync" path (fun () -> Unix.fsync fd));
      truncate = (fun n -> wrap "truncate" path (fun () -> Unix.ftruncate fd n));
      size = (fun () -> wrap "stat" path (fun () -> (Unix.fstat fd).Unix.st_size));
      close = (fun () -> wrap "close" path (fun () -> Unix.close fd));
    }
  in
  {
    open_file;
    exists = Sys.file_exists;
    remove =
      (fun path ->
        try Unix.unlink path
        with
        | Unix.Unix_error (Unix.ENOENT, _, _) ->
          Storage_error.raise_error (File_not_found path)
        | Unix.Unix_error (e, _, _) -> io "unlink %s: %s" path (Unix.error_message e));
    rename =
      (fun ~sync src dst ->
        (* a file published over [dst] keeps the permission bits an
           operator gave it (the owner becomes the publisher's) *)
        (try
           (match Unix.stat dst with
            | st -> Unix.chmod src st.Unix.st_perm
            | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
           Unix.rename src dst
         with
         | Unix.Unix_error (Unix.ENOENT, _, _) ->
           Storage_error.raise_error (File_not_found src)
         | Unix.Unix_error (e, _, _) ->
           io "rename %s -> %s: %s" src dst (Unix.error_message e));
        if sync then sync_dir dst);
    list_dir =
      (fun dir ->
        match Sys.readdir dir with
        | entries -> List.sort compare (Array.to_list entries)
        | exception Sys_error _ -> []);
  }

(* {1 In-memory file system} *)

type mem_file = { mutable data : Bytes.t; mutable len : int }

let mem_reserve f n =
  if n > Bytes.length f.data then begin
    let cap = max n (max 4096 (2 * Bytes.length f.data)) in
    let data = Bytes.make cap '\000' in
    Bytes.blit f.data 0 data 0 f.len;
    f.data <- data
  end

let mem_ops f =
  {
    read =
      (fun buf ~off ~pos ~len ->
        if off >= f.len then 0
        else begin
          let n = min len (f.len - off) in
          Bytes.blit f.data off buf pos n;
          n
        end);
    write =
      (fun buf ~off ~pos ~len ->
        mem_reserve f (off + len);
        (* extending past the previous end leaves a zero-filled hole, like a
           sparse file *)
        Bytes.blit buf pos f.data off len;
        f.len <- max f.len (off + len));
    sync = (fun () -> ());
    truncate =
      (fun n ->
        if n < f.len then Bytes.fill f.data n (f.len - n) '\000';
        f.len <- n);
    size = (fun () -> f.len);
    close = (fun () -> ());
  }

let memory () =
  let files : (string, mem_file) Hashtbl.t = Hashtbl.create 4 in
  {
    open_file =
      (fun path ~create ->
        match Hashtbl.find_opt files path with
        | Some f ->
          if create then begin
            Bytes.fill f.data 0 f.len '\000';
            f.len <- 0
          end;
          mem_ops f
        | None ->
          if not create then Storage_error.raise_error (File_not_found path);
          let f = { data = Bytes.create 0; len = 0 } in
          Hashtbl.replace files path f;
          mem_ops f);
    exists = (fun path -> Hashtbl.mem files path);
    remove =
      (fun path ->
        if not (Hashtbl.mem files path) then
          Storage_error.raise_error (File_not_found path);
        Hashtbl.remove files path);
    rename =
      (fun ~sync:_ src dst ->
        match Hashtbl.find_opt files src with
        | None -> Storage_error.raise_error (File_not_found src)
        | Some f ->
          (* handles on the old [dst] keep its record, as an open fd keeps
             its inode *)
          Hashtbl.remove files src;
          Hashtbl.replace files dst f);
    list_dir =
      (fun dir ->
        Hashtbl.fold
          (fun path _ acc ->
            if Filename.dirname path = dir then Filename.basename path :: acc
            else acc)
          files []
        |> List.sort compare);
  }

(* {1 Publishing} *)

let tmp_path path = path ^ ".tmp"

let publish t ~fsync file path =
  if fsync then file.sync ();
  t.rename ~sync:fsync (tmp_path path) path

let read_file t path =
  let f = t.open_file path ~create:false in
  Fun.protect ~finally:f.close @@ fun () ->
  let n = f.size () in
  let buf = Bytes.create n in
  let got = read_full f buf ~off:0 ~pos:0 ~len:n in
  if got = n then Bytes.unsafe_to_string buf else Bytes.sub_string buf 0 got
