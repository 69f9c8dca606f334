module Ihs = Hopi_util.Int_hashset
module Int_set = Hopi_util.Int_set

type t = {
  lin : (int, Ihs.t) Hashtbl.t;
  lout : (int, Ihs.t) Hashtbl.t;
  (* backward indexes: center -> nodes labelled with it *)
  lin_inv : (int, Ihs.t) Hashtbl.t;
  lout_inv : (int, Ihs.t) Hashtbl.t;
  (* the DIST column (Section 5.1): each entry's distance, keyed by the
     entry's [pack_entry], held only where it is not 0 — a plain cover
     never touches these *)
  lin_dist : (int, int) Hashtbl.t;
  lout_dist : (int, int) Hashtbl.t;
  mutable size : int;
  mutable on_change : (int -> unit) option;
}

let create ?(initial = 64) () =
  {
    lin = Hashtbl.create initial;
    lout = Hashtbl.create initial;
    lin_inv = Hashtbl.create initial;
    lout_inv = Hashtbl.create initial;
    lin_dist = Hashtbl.create 1;
    lout_dist = Hashtbl.create 1;
    size = 0;
    on_change = None;
  }

let set_on_label_change t f = t.on_change <- f

let notify t v = match t.on_change with Some f -> f v | None -> ()

let bucket h k =
  match Hashtbl.find_opt h k with
  | Some s -> s
  | None ->
    let s = Ihs.create ~initial:4 () in
    Hashtbl.add h k s;
    s

let add_node t v =
  ignore (bucket t.lin v);
  ignore (bucket t.lout v)

let mem_node t v = Hashtbl.mem t.lin v

let n_nodes t = Hashtbl.length t.lin

let iter_nodes t f = Hashtbl.iter (fun v _ -> f v) t.lin

let nodes t = Hashtbl.fold (fun v _ acc -> v :: acc) t.lin []

let pack_bits = 31

let pack_mask = (1 lsl pack_bits) - 1

let pack_entry ~node ~center =
  if node < 0 || node > pack_mask || center < 0 || center > pack_mask then
    invalid_arg (Printf.sprintf "Cover.pack_entry: (%d, %d) out of range" node center);
  (node lsl pack_bits) lor center

(* an entry's key in the distance maps; -1, never a key, outside the
   packed range, where no entry can hold a distance *)
let dist_key ~node ~center =
  if node < 0 || node > pack_mask || center < 0 || center > pack_mask then -1
  else (node lsl pack_bits) lor center

let entry_dist dists ~node ~center =
  if Hashtbl.length dists = 0 then 0
  else Option.value ~default:0 (Hashtbl.find_opt dists (dist_key ~node ~center))

let set_dist dists ~node ~center d =
  if d = 0 then Hashtbl.remove dists (dist_key ~node ~center)
  else Hashtbl.replace dists (pack_entry ~node ~center) d

let add_entry t fwd inv dists ~node ~center ~dist =
  if dist < 0 then invalid_arg "Cover: negative distance";
  if node <> center then begin
    add_node t node;
    let s = bucket fwd node in
    if not (Ihs.mem s center) then begin
      Ihs.add s center;
      Ihs.add (bucket inv center) node;
      if dist > 0 then set_dist dists ~node ~center dist;
      t.size <- t.size + 1;
      notify t node
    end
    else if dist < entry_dist dists ~node ~center then begin
      set_dist dists ~node ~center dist;
      notify t node
    end
  end

let add_in ?(dist = 0) t ~node ~center =
  add_entry t t.lin t.lin_inv t.lin_dist ~node ~center ~dist

let add_out ?(dist = 0) t ~node ~center =
  add_entry t t.lout t.lout_inv t.lout_dist ~node ~center ~dist

(* {1 Packed batch additions}

   The build pipeline's bulk path: entries arrive as one sorted array of
   packed (node, center) pairs, so both directions of the index update in
   grouped passes — one bucket lookup per node group instead of five hash
   probes per entry.  The backward index is maintained internally: only
   the entries that were actually new are repacked (center, node), sorted,
   and applied in a second grouped pass. *)

let add_packed t fwd inv dists entries =
  let n = Array.length entries in
  (* an entry already present at a distance > 0 drops to distance 0 *)
  let has_dists = Hashtbl.length dists > 0 in
  (* entries actually added, repacked (center, node) for the inverse pass *)
  let kept = Array.make n 0 in
  let k = ref 0 in
  let i = ref 0 in
  while !i < n do
    let node = entries.(!i) lsr pack_bits in
    let j = ref !i in
    while !j < n && entries.(!j) lsr pack_bits = node do
      incr j
    done;
    add_node t node;
    let s = bucket fwd node in
    let before = !k and lowered = ref false in
    for e = !i to !j - 1 do
      let center = entries.(e) land pack_mask in
      if center <> node then
        if not (Ihs.mem s center) then begin
          Ihs.add s center;
          kept.(!k) <- (center lsl pack_bits) lor node;
          incr k
        end
        else if has_dists && Hashtbl.mem dists entries.(e) then begin
          Hashtbl.remove dists entries.(e);
          lowered := true
        end
    done;
    if !k > before || !lowered then notify t node;
    i := !j
  done;
  let added = !k in
  Hopi_util.Radix_sort.sort_prefix kept added;
  let kept = if added = n then kept else Array.sub kept 0 added in
  let i = ref 0 in
  while !i < added do
    let center = kept.(!i) lsr pack_bits in
    let s = bucket inv center in
    let j = ref !i in
    while !j < added && kept.(!j) lsr pack_bits = center do
      Ihs.add s (kept.(!j) land pack_mask);
      incr j
    done;
    i := !j
  done;
  t.size <- t.size + added;
  added

let add_in_packed t entries = add_packed t t.lin t.lin_inv t.lin_dist entries

let add_out_packed t entries = add_packed t t.lout t.lout_inv t.lout_dist entries

let get h v =
  match Hashtbl.find_opt h v with
  | Some s -> s
  | None -> Ihs.create ~initial:1 ()

let lin t v = Ihs.to_int_set (get t.lin v)

let lout t v = Ihs.to_int_set (get t.lout v)

let lin_cardinal t v = Ihs.cardinal (get t.lin v)

let lout_cardinal t v = Ihs.cardinal (get t.lout v)

let iter_side fwd dists v f =
  match Hashtbl.find_opt fwd v with
  | None -> ()
  | Some s ->
    if Hashtbl.length dists = 0 then Ihs.iter (fun c -> f c 0) s
    else Ihs.iter (fun c -> f c (entry_dist dists ~node:v ~center:c)) s

let iter_lin t v f = iter_side t.lin t.lin_dist v f

let iter_lout t v f = iter_side t.lout t.lout_dist v f

let in_labelled_with t w = get t.lin_inv w

let out_labelled_with t w = get t.lout_inv w

let inter_nonempty a b =
  let small, large = if Ihs.cardinal a <= Ihs.cardinal b then (a, b) else (b, a) in
  try
    Ihs.iter (fun x -> if Ihs.mem large x then raise Exit) small;
    false
  with Exit -> true

let connected t u v =
  if not (mem_node t u && mem_node t v) then false
  else if u = v then true
  else begin
    let ou = get t.lout u and iv = get t.lin v in
    (* implicit self entries: u ∈ Lout(u), v ∈ Lin(v) *)
    Ihs.mem ou v || Ihs.mem iv u || inter_nonempty ou iv
  end

let dist t u v =
  if not (mem_node t u && mem_node t v) then None
  else if u = v then Some 0
  else begin
    let ou = get t.lout u and iv = get t.lin v in
    let dout w = entry_dist t.lout_dist ~node:u ~center:w in
    let din w = entry_dist t.lin_dist ~node:v ~center:w in
    (* implicit centers: w = u (dout 0) and w = v (din 0) *)
    let best = ref max_int in
    let consider d = if d < !best then best := d in
    if Ihs.mem iv u then consider (din u);
    if Ihs.mem ou v then consider (dout v);
    if Ihs.cardinal ou <= Ihs.cardinal iv then
      Ihs.iter (fun w -> if Ihs.mem iv w then consider (dout w + din w)) ou
    else Ihs.iter (fun w -> if Ihs.mem ou w then consider (dout w + din w)) iv;
    if !best = max_int then None else Some !best
  end

let descendants t u =
  let acc = Ihs.create () in
  if mem_node t u then begin
    Ihs.add acc u;
    let via_center w =
      (* center w itself is a descendant of u, plus all nodes carrying w in Lin *)
      Ihs.add acc w;
      Ihs.iter (fun v -> Ihs.add acc v) (get t.lin_inv w)
    in
    via_center u;
    Ihs.iter via_center (get t.lout u)
  end;
  acc

let ancestors t v =
  let acc = Ihs.create () in
  if mem_node t v then begin
    Ihs.add acc v;
    let via_center w =
      Ihs.add acc w;
      Ihs.iter (fun u -> Ihs.add acc u) (get t.lout_inv w)
    in
    via_center v;
    Ihs.iter via_center (get t.lin v)
  end;
  acc

let size t = t.size

let union_into ~dst src =
  Hashtbl.iter (fun v _ -> add_node dst v) src.lin;
  let side fwd inv dists src_fwd src_dists =
    Hashtbl.iter
      (fun node _ ->
        iter_side src_fwd src_dists node (fun center dist ->
            add_entry dst fwd inv dists ~node ~center ~dist))
      src_fwd
  in
  side dst.lin dst.lin_inv dst.lin_dist src.lin src.lin_dist;
  side dst.lout dst.lout_inv dst.lout_dist src.lout src.lout_dist

let set_labels t fwd inv dists node set =
  add_node t node;
  let old = get fwd node in
  let changed = ref false in
  Ihs.iter
    (fun w ->
      if not (Int_set.mem w set) then begin
        Ihs.remove (bucket inv w) node;
        if Hashtbl.length dists > 0 then set_dist dists ~node ~center:w 0;
        t.size <- t.size - 1;
        changed := true
      end)
    old;
  Int_set.iter
    (fun w ->
      if w <> node && not (Ihs.mem old w) then begin
        Ihs.add (bucket inv w) node;
        t.size <- t.size + 1;
        changed := true
      end)
    set;
  let fresh = Ihs.create ~initial:(Int_set.cardinal set) () in
  Int_set.iter (fun w -> if w <> node then Ihs.add fresh w) set;
  Hashtbl.replace fwd node fresh;
  if !changed then notify t node

let set_lin t node set = set_labels t t.lin t.lin_inv t.lin_dist node set

let set_lout t node set = set_labels t t.lout t.lout_inv t.lout_dist node set

let remove_node t v =
  if mem_node t v then begin
    set_lin t v Int_set.empty;
    set_lout t v Int_set.empty;
    (* entries naming v as a center *)
    let strip fwd dists n =
      let s = get fwd n in
      if Ihs.mem s v then begin
        Ihs.remove s v;
        if Hashtbl.length dists > 0 then set_dist dists ~node:n ~center:v 0;
        t.size <- t.size - 1;
        notify t n
      end
    in
    Ihs.iter (strip t.lin t.lin_dist) (get t.lin_inv v);
    Ihs.iter (strip t.lout t.lout_dist) (get t.lout_inv v);
    Hashtbl.remove t.lin_inv v;
    Hashtbl.remove t.lout_inv v;
    Hashtbl.remove t.lin v;
    Hashtbl.remove t.lout v;
    notify t v
  end
