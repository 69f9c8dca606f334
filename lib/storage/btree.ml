type key = int * int * int

let min_i32 = Int32.to_int Int32.min_int

let max_i32 = Int32.to_int Int32.max_int

(* Page layouts, all offsets relative to [Page.payload_off] (the pager's
   checksum header occupies the bytes below it; see .mli):
   leaf:     [+0]=0 [+2..3]=nkeys [+4..7]=next_leaf(i32, -1 none); entries
             of 12 bytes (3 x i32) from offset +8; capacity 340
   internal: [+0]=1 [+2..3]=nkeys [+4..7]=child0(i32); slots of 16 bytes
             (key 12 + right child 4) from offset +8; capacity 255 *)

let po = Page.payload_off

let leaf_header = po + 8

let leaf_entry = 12

let leaf_capacity = (Page.size - leaf_header) / leaf_entry

let int_header = po + 8

let int_slot = 16

let int_capacity = (Page.size - int_header) / int_slot

type t = { pager : Pager.t; root : int; length : int }

let is_leaf page = Page.get_u8 page po = 0

let nkeys page = Page.get_u16 page (po + 2)

let set_nkeys page n = Page.set_u16 page (po + 2) n

let next_leaf page = Page.get_i32 page (po + 4)

let set_next_leaf page v = Page.set_i32 page (po + 4) v

let leaf_key page i =
  let off = leaf_header + (i * leaf_entry) in
  (Page.get_i32 page off, Page.get_i32 page (off + 4), Page.get_i32 page (off + 8))

let set_leaf_key page i (a, b, c) =
  let off = leaf_header + (i * leaf_entry) in
  Page.set_i32 page off a;
  Page.set_i32 page (off + 4) b;
  Page.set_i32 page (off + 8) c

let int_child page i =
  if i = 0 then Page.get_i32 page (po + 4)
  else Page.get_i32 page (int_header + ((i - 1) * int_slot) + 12)

let set_int_child page i v =
  if i = 0 then Page.set_i32 page (po + 4) v
  else Page.set_i32 page (int_header + ((i - 1) * int_slot) + 12) v

let int_key page i =
  let off = int_header + (i * int_slot) in
  (Page.get_i32 page off, Page.get_i32 page (off + 4), Page.get_i32 page (off + 8))

let set_int_key page i (a, b, c) =
  let off = int_header + (i * int_slot) in
  Page.set_i32 page off a;
  Page.set_i32 page (off + 4) b;
  Page.set_i32 page (off + 8) c

let key_compare (a1, b1, c1) (a2, b2, c2) =
  let c = compare (a1 : int) a2 in
  if c <> 0 then c
  else
    let c = compare (b1 : int) b2 in
    if c <> 0 then c else compare (c1 : int) c2

let root t = t.root

let of_root pager ~root ~length = { pager; root; length }

(* First leaf slot i in [0,n) with key(i) >= k, else n. *)
let lower_bound page n k =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if key_compare (leaf_key page mid) k < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Child index to descend into for key [k]: number of separators <= k. *)
let descend_index page k =
  let n = nkeys page in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if key_compare (int_key page mid) k <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let rec find_leaf t pid k =
  let page = Pager.read t.pager pid in
  if is_leaf page then pid
  else find_leaf t (int_child page (descend_index page k)) k

let mem t k =
  let pid = find_leaf t t.root k in
  let page = Pager.read t.pager pid in
  let n = nkeys page in
  let i = lower_bound page n k in
  i < n && key_compare (leaf_key page i) k = 0

let length t = t.length

(* {1 Bulk loading}

   Bottom-up construction from a strictly ascending key stream: leaves are
   filled left-to-right to capacity and chained, then internal levels are
   stitched over the first keys of their children (separator i is the
   smallest key under child i+1), up to a single root.  No per-key
   descent: each page is built fresh and handed to [Pager.write] once;
   a leaf allocates the id of the following leaf before it is written,
   so its next pointer is known. *)

let m_bulk_pages =
  Hopi_obs.Registry.counter "hopi_storage_btree_bulk_pages_total"
    ~help:"Pages written by bottom-up B+-tree bulk loads"

let m_bulk_loads =
  Hopi_obs.Registry.counter "hopi_storage_btree_bulk_loads_total"
    ~help:"Bottom-up B+-tree bulk loads"

let bulk_load pager ~next =
  let pages = ref 0 in
  let alloc () =
    incr pages;
    Pager.alloc pager
  in
  let pending = ref (next ()) in
  let length = ref 0 in
  let last = ref None in
  (* consume the head of the stream, validating range and order *)
  let take () =
    match !pending with
    | None -> None
    | Some ((a, b, c) as k) ->
      let check v =
        if v < min_i32 || v > max_i32 then
          invalid_arg
            (Printf.sprintf "Btree.bulk_load: component %d out of 32-bit range" v)
      in
      check a;
      check b;
      check c;
      (match !last with
      | Some p when key_compare p k >= 0 ->
        invalid_arg "Btree.bulk_load: stream not strictly ascending"
      | _ -> ());
      last := Some k;
      pending := next ();
      incr length;
      Some k
  in
  (* leaf level: (first key, page id) per leaf, in key order *)
  let leaves = Hopi_util.Dyn_array.create () in
  let first_pid = alloc () in
  let rec fill pid =
    let page = Page.create () in
    Page.set_u8 page po 0;
    let n = ref 0 in
    let continue_ = ref true in
    while !continue_ && !n < leaf_capacity do
      match take () with
      | None -> continue_ := false
      | Some k ->
        if !n = 0 then Hopi_util.Dyn_array.push leaves (k, pid);
        set_leaf_key page !n k;
        incr n
    done;
    set_nkeys page !n;
    let rid = if !pending = None then -1 else alloc () in
    set_next_leaf page rid;
    Pager.write pager pid page;
    if rid >= 0 then fill rid
  in
  fill first_pid;
  (* internal levels: group up to [int_capacity + 1] children per node,
     sizes balanced so no node is left with a single child *)
  let build_level children =
    let n = Array.length children in
    let max_fanout = int_capacity + 1 in
    let k = (n + max_fanout - 1) / max_fanout in
    let base = n / k and extra = n mod k in
    let out = Array.make k children.(0) in
    let idx = ref 0 in
    for g = 0 to k - 1 do
      let sz = base + if g < extra then 1 else 0 in
      let pid = alloc () in
      let page = Page.create () in
      Page.set_u8 page po 1;
      set_nkeys page (sz - 1);
      let fk, cpid = children.(!idx) in
      set_int_child page 0 cpid;
      for j = 1 to sz - 1 do
        let sk, spid = children.(!idx + j) in
        set_int_key page (j - 1) sk;
        set_int_child page j spid
      done;
      Pager.write pager pid page;
      out.(g) <- (fk, pid);
      idx := !idx + sz
    done;
    out
  in
  let rec up children =
    if Array.length children = 1 then snd children.(0) else up (build_level children)
  in
  let root =
    if Hopi_util.Dyn_array.length leaves <= 1 then first_pid
    else
      up
        (Array.init
           (Hopi_util.Dyn_array.length leaves)
           (Hopi_util.Dyn_array.get leaves))
  in
  Hopi_obs.Counter.add m_bulk_pages !pages;
  Hopi_obs.Counter.incr m_bulk_loads;
  { pager; root; length = !length }

(* {1 Scans} *)

let iter_from t lo f =
  let pid = ref (find_leaf t t.root lo) in
  let continue_ = ref true in
  let started = ref false in
  while !continue_ && !pid >= 0 do
    let page = Pager.read t.pager !pid in
    let n = nkeys page in
    let start = if !started then 0 else lower_bound page n lo in
    started := true;
    let i = ref start in
    while !continue_ && !i < n do
      if not (f (leaf_key page !i)) then continue_ := false;
      incr i
    done;
    if !continue_ then pid := next_leaf page
  done

let iter_prefix1 t a f =
  iter_from t (a, min_i32, min_i32) (fun ((a', _, _) as k) ->
      if a' = a then begin
        f k;
        true
      end
      else false)

let iter_prefix2 t a b f =
  iter_from t (a, b, min_i32) (fun ((a', b', _) as k) ->
      if a' = a && b' = b then begin
        f k;
        true
      end
      else false)
