(* Generation manifest — see the interface for the protocol.  The file is
   a one-page pager store of its own (magic "HGEN"), so a commit publishes
   it like every other page file (temp write, fsync, rename) and the crash
   matrix in test/test_crash.ml can drive publish/rollback through
   fault_vfs. *)

module E = Storage_error

type t = { live : int; previous : int; tip : int }

let magic = 0x4847454E (* "HGEN" *)

let version = 1

let po = Page.payload_off

(* layout from [po]: [+0..3] magic, [+4..7] version, [+8..11] live,
   [+12..15] previous, [+16..19] tip *)

let path ~base = base ^ ".gens"

let gen_path ~base k = if k = 0 then base else Printf.sprintf "%s.gen%d" base k

let validate m =
  if m.tip < 0 || m.live < 0 || m.previous < 0 || m.live > m.tip
     || m.previous > m.tip
  then
    E.raise_error
      (Bad_catalog
         (Printf.sprintf "implausible generation manifest live=%d previous=%d tip=%d"
            m.live m.previous m.tip))

let write_page pager m =
  let page = Page.create () in
  Page.set_i32 page (po + 0) magic;
  Page.set_i32 page (po + 4) version;
  Page.set_i32 page (po + 8) m.live;
  Page.set_i32 page (po + 12) m.previous;
  Page.set_i32 page (po + 16) m.tip;
  Pager.write pager (Pager.alloc pager) page

let parse pager =
  if Pager.n_pages pager < 1 then
    E.raise_error (Truncated "generation manifest has no page");
  let page = Pager.read pager 0 in
  let got_magic = Page.get_i32 page (po + 0) in
  if got_magic <> magic then
    E.raise_error (Bad_magic { got = got_magic; expected = magic });
  let got_version = Page.get_i32 page (po + 4) in
  if got_version <> version then
    E.raise_error (Bad_version { got = got_version; expected = version });
  let m =
    { live = Page.get_i32 page (po + 8);
      previous = Page.get_i32 page (po + 12);
      tip = Page.get_i32 page (po + 16) }
  in
  validate m;
  m

let read_file ?(vfs = Vfs.real) p =
  let pager = Pager.open_existing ~pool_pages:4 ~vfs p in
  Fun.protect ~finally:(fun () -> Pager.close pager) (fun () -> parse pager)

let read ?(vfs = Vfs.real) ~base () = read_file ~vfs (path ~base)

let commit ?(vfs = Vfs.real) ?(fsync = true) ~base m =
  validate m;
  let pager = Pager.create_vfs ~fsync ~vfs (path ~base) in
  write_page pager m;
  Pager.close pager

let publish ?(vfs = Vfs.real) ?(fsync = true) ~base ~load () =
  let m = read ~vfs ~base () in
  let g = m.tip + 1 in
  (* Pager.create truncates a stale temp file and the rename replaces a
     stray published one, so a previously crashed publish cannot pollute
     this one. *)
  let pager = Pager.create_vfs ~fsync ~vfs (gen_path ~base g) in
  load pager;
  Pager.close pager;
  let m' = { live = g; previous = m.live; tip = g } in
  commit ~vfs ~fsync ~base m';
  m'

let rollback ?(vfs = Vfs.real) ?(fsync = true) ~base () =
  let m = read ~vfs ~base () in
  if m.previous = m.live then m
  else begin
    let m' = { m with live = m.previous; previous = m.live } in
    commit ~vfs ~fsync ~base m';
    m'
  end

let remove_if_exists vfs p = if vfs.Vfs.exists p then vfs.Vfs.remove p

(* A crash can leave a temp manifest, and the next generation's store —
   published or still a temp file — that no manifest names yet.  With no
   manifest the next generation is 0, the base itself, which is kept. *)
let recover ?(vfs = Vfs.real) ~base () =
  let p = path ~base in
  remove_if_exists vfs (Vfs.tmp_path p);
  let m = if vfs.Vfs.exists p then Some (read ~vfs ~base ()) else None in
  let next = match m with Some m -> m.tip + 1 | None -> 0 in
  let stray = gen_path ~base next in
  if next > 0 then remove_if_exists vfs stray;
  remove_if_exists vfs (Vfs.tmp_path stray);
  m
