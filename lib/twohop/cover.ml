module Ihs = Hopi_util.Int_hashset
module Int_set = Hopi_util.Int_set
module Radix_sort = Hopi_util.Radix_sort
module Dyn_array = Hopi_util.Dyn_array
module Closure = Hopi_graph.Closure

(* int-keyed tables with an identity hash: node and center ids are small
   and mostly consecutive *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash x = x land max_int
end)

let pack_bits = 31

let pack_mask = (1 lsl pack_bits) - 1

let pack_entry ~node ~center =
  if node < 0 || node > pack_mask || center < 0 || center > pack_mask then
    invalid_arg (Printf.sprintf "Cover.pack_entry: (%d, %d) out of range" node center);
  (node lsl pack_bits) lor center

(* {1 The frozen base} *)

type rows = {
  off : int array;
  ctr : int array;
  dist : int array;
  by_off : int array;
  by_node : int array;
  by_dist : int array;
}

type frozen = { keys : int array; lin : rows; lout : rows }

let no_rows = { off = [| 0 |]; ctr = [||]; dist = [||]; by_off = [| 0 |]; by_node = [||]; by_dist = [||] }

let[@inline] dist_at d j = if Array.length d = 0 then 0 else Array.unsafe_get d j

(* position of [c] in the ascending [a.(lo) .. a.(hi - 1)], -1 if absent *)
let search a lo hi c =
  let lo = ref lo and hi = ref (hi - 1) and r = ref (-1) in
  while !r < 0 && !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let k = Array.unsafe_get a mid in
    if k = c then r := mid else if k < c then lo := mid + 1 else hi := mid - 1
  done;
  !r

(* slot of [v] among the ascending [keys], -1 if absent.  Keys are
   mostly runs of consecutive ids (a document's elements are numbered
   together), so [v]'s offset from the first key answers without a
   search when all keys are one run, or the keys up to [v] are. *)
let slot keys v =
  let n = Array.length keys in
  let guess = if n = 0 then -1 else v - Array.unsafe_get keys 0 in
  if n > 0 && Array.unsafe_get keys (n - 1) - Array.unsafe_get keys 0 = n - 1 then
    if guess >= 0 && guess < n then guess else -1
  else if guess >= 0 && guess < n && Array.unsafe_get keys guess = v then guess
  else search keys 0 n v

(* ascending and duplicate-free *)
let sort_uniq a =
  let n = Array.length a in
  if Array.for_all (fun x -> x >= 0) a then Array.sub a 0 (Radix_sort.sort_uniq_prefix a n)
  else Array.of_list (List.sort_uniq Int.compare (Array.to_list a))

(* {2 Freezing}

   Rows are written node by node into one growable pair of arrays; the
   distance array appears with the first non-zero distance.  The keys
   are then the nodes plus every center that is not one, and each
   backward table is one counting pass over the forward rows in slot
   order, so its rows come out ascending by node. *)

type acc = { mutable ac : int array; mutable ad : int array; mutable an : int }

let push a c d =
  if a.an = Array.length a.ac then begin
    let cap = max 8 (2 * a.an) in
    let grow x = Array.append x (Array.make (cap - a.an) 0) in
    a.ac <- grow a.ac;
    if Array.length a.ad > 0 then a.ad <- grow a.ad
  end;
  a.ac.(a.an) <- c;
  if d <> 0 && Array.length a.ad = 0 then a.ad <- Array.make (Array.length a.ac) 0;
  if Array.length a.ad > 0 then a.ad.(a.an) <- d;
  a.an <- a.an + 1

let trim x n = if Array.length x = n || Array.length x = 0 then x else Array.sub x 0 n

type dir = In | Out

(* [fill dir i a] pushes [nodes.(i)]'s row on side [dir] into [a], each
   center once, ascending, no self-entry; [cap dir] sizes the arrays *)
let freeze ~nodes ~cap fill =
  let nr = Array.length nodes in
  let forward dir =
    let off = Array.make (nr + 1) 0 in
    let a = { ac = Array.make (cap dir) 0; ad = [||]; an = 0 } in
    for i = 0 to nr - 1 do
      fill dir i a;
      off.(i + 1) <- a.an
    done;
    (off, trim a.ac a.an, trim a.ad a.an)
  in
  let fin = forward In and fout = forward Out in
  let extra = Ihs.create ~initial:1 () in
  let scan (_, ctr, _) = Array.iter (fun c -> if slot nodes c < 0 then Ihs.add extra c) ctr in
  scan fin;
  scan fout;
  let keys, registered, rekey =
    if Ihs.is_empty extra then (nodes, Bytes.make nr '\001', Fun.id)
    else begin
      let keys = sort_uniq (Array.append nodes (Array.of_list (Ihs.to_list extra))) in
      let nk = Array.length keys in
      let registered = Bytes.make nk '\000' in
      Array.iteri (fun k key -> if slot nodes key >= 0 then Bytes.set registered k '\001') keys;
      (* rows over the nodes, moved to rows over the keys *)
      let rekey off =
        let o = Array.make (nk + 1) 0 and i = ref 0 in
        for k = 0 to nk - 1 do
          let len =
            if !i < nr && nodes.(!i) = keys.(k) then begin
              incr i;
              off.(!i) - off.(!i - 1)
            end
            else 0
          in
          o.(k + 1) <- o.(k) + len
        done;
        o
      in
      (keys, registered, rekey)
    end
  in
  let nk = Array.length keys in
  let side (off, ctr, dist) =
    let off = rekey off in
    let by_off = Array.make (nk + 1) 0 in
    Array.iter (fun c -> let s = slot keys c + 1 in by_off.(s) <- by_off.(s) + 1) ctr;
    for s = 1 to nk do
      by_off.(s) <- by_off.(s) + by_off.(s - 1)
    done;
    let fill = Array.sub by_off 0 nk in
    let by_node = Array.make (Array.length ctr) 0 in
    let by_dist = if Array.length dist = 0 then [||] else Array.make (Array.length ctr) 0 in
    for i = 0 to nk - 1 do
      for j = off.(i) to off.(i + 1) - 1 do
        let s = slot keys ctr.(j) in
        let at = fill.(s) in
        by_node.(at) <- i;
        if Array.length dist > 0 then by_dist.(at) <- dist.(j);
        fill.(s) <- at + 1
      done
    done;
    { off; ctr; dist; by_off; by_node; by_dist }
  in
  (keys, registered, side fin, side fout)

(* {1 The cover: frozen base plus overlay} *)

(* One direction.  The overlay holds, per node written since the freeze,
   its whole current row (center -> distance), which replaces the base
   row; and, per center, the nodes that name it in a replaced row but not
   in their base row ([b_add]) and those whose base row names it but
   whose replaced row no longer does ([b_del]). *)
type side = {
  mutable base : rows;
  repl : int Itbl.t Itbl.t;
  b_add : Ihs.t Itbl.t;
  b_del : Ihs.t Itbl.t;
  mutable count : int;  (* entries on this side *)
}

type t = {
  mutable keys : int array;
  mutable registered : Bytes.t;  (* per slot: '\001' for a node *)
  mutable base_nodes : int;
  lin : side;
  lout : side;
  added : Ihs.t;  (* nodes registered since the freeze *)
  removed : Ihs.t;  (* base nodes unregistered since *)
  mutable on_change : (int -> unit) option;
}

let empty_side initial =
  { base = no_rows; repl = Itbl.create initial; b_add = Itbl.create 16; b_del = Itbl.create 16;
    count = 0 }

let create ?(initial = 64) () =
  { keys = [||]; registered = Bytes.empty; base_nodes = 0; lin = empty_side initial;
    lout = empty_side initial; added = Ihs.create ~initial (); removed = Ihs.create ~initial:1 ();
    on_change = None }

let count_nodes registered =
  let n = ref 0 in
  Bytes.iter (fun b -> if b <> '\000' then incr n) registered;
  !n

(* make [(keys, registered, lin, lout)] [t]'s base, with an empty overlay *)
let install t (keys, registered, lin, lout) =
  t.keys <- keys;
  t.registered <- registered;
  t.base_nodes <- count_nodes registered;
  List.iter
    (fun (s, base) ->
      Itbl.reset s.repl;
      Itbl.reset s.b_add;
      Itbl.reset s.b_del;
      s.base <- base;
      s.count <- Array.length base.ctr)
    [ (t.lin, lin); (t.lout, lout) ];
  Ihs.clear t.added;
  Ihs.clear t.removed

let of_frozen f =
  let t = create ~initial:1 () in
  install t f;
  t

let side t = function In -> t.lin | Out -> t.lout

let set_on_label_change t f = t.on_change <- f

let notify t v = match t.on_change with Some f -> f v | None -> ()

let base_registered t v =
  let i = slot t.keys v in
  i >= 0 && Bytes.unsafe_get t.registered i <> '\000'

(* [v], at slot [i] of the keys, is a node *)
let node_at t i v =
  if i >= 0 && Bytes.unsafe_get t.registered i <> '\000' then
    Ihs.is_empty t.removed || not (Ihs.mem t.removed v)
  else (not (Ihs.is_empty t.added)) && Ihs.mem t.added v

let mem_node t v = node_at t (slot t.keys v) v

let n_nodes t = t.base_nodes - Ihs.cardinal t.removed + Ihs.cardinal t.added

let iter_nodes t f =
  Array.iteri
    (fun i v ->
      if Bytes.unsafe_get t.registered i <> '\000' && not (Ihs.mem t.removed v) then f v)
    t.keys;
  Ihs.iter f t.added

let nodes t =
  let l = ref [] in
  iter_nodes t (fun v -> l := v :: !l);
  !l

let add_node t v =
  if not (mem_node t v) then
    if base_registered t v then Ihs.remove t.removed v else Ihs.add t.added v

let size t = t.lin.count + t.lout.count

(* {2 Reading a row} *)

let find_repl s v = if Itbl.length s.repl = 0 then None else Itbl.find_opt s.repl v

(* [(lo, hi)]: [v]'s row in the base *)
let base_range t s v =
  let i = slot t.keys v in
  if i < 0 then (0, 0) else (s.base.off.(i), s.base.off.(i + 1))

let iter_row t s v f =
  match find_repl s v with
  | Some r -> Itbl.iter f r
  | None ->
    let b = s.base and lo, hi = base_range t s v in
    for j = lo to hi - 1 do
      f b.ctr.(j) (dist_at b.dist j)
    done

(* the distance of entry [(v, c)], -1 if there is none; [i] is [v]'s
   slot *)
let row_dist s v i c =
  match find_repl s v with
  | Some r -> ( match Itbl.find_opt r c with Some d -> d | None -> -1)
  | None ->
    if i < 0 then -1
    else
      let b = s.base in
      let j = search b.ctr b.off.(i) b.off.(i + 1) c in
      if j < 0 then -1 else dist_at b.dist j

let cardinal t s v =
  match find_repl s v with
  | Some r -> Itbl.length r
  | None ->
    let lo, hi = base_range t s v in
    hi - lo

let snapshot t s v =
  match find_repl s v with
  | Some r ->
    let a = Array.of_seq (Itbl.to_seq_keys r) in
    Array.sort Int.compare a;
    Int_set.of_sorted_array_unsafe a
  | None ->
    let lo, hi = base_range t s v in
    Int_set.of_sorted_array_unsafe (Array.sub s.base.ctr lo (hi - lo))

let lin t v = snapshot t t.lin v

let lout t v = snapshot t t.lout v

let lin_cardinal t v = cardinal t t.lin v

let lout_cardinal t v = cardinal t t.lout v

let iter_lin t v f = iter_row t t.lin v f

let iter_lout t v f = iter_row t t.lout v f

(* [f v] for every node [v] whose row on side [s] names center [w] *)
let iter_by t s w f =
  let i = slot t.keys w in
  if i >= 0 then begin
    let b = s.base in
    let del = if Itbl.length s.b_del = 0 then None else Itbl.find_opt s.b_del w in
    for j = b.by_off.(i) to b.by_off.(i + 1) - 1 do
      let v = t.keys.(b.by_node.(j)) in
      match del with Some d when Ihs.mem d v -> () | _ -> f v
    done
  end;
  if Itbl.length s.b_add > 0 then Option.iter (Ihs.iter f) (Itbl.find_opt s.b_add w)

let labelled_with t s w =
  let l = ref [] in
  iter_by t s w (fun v -> l := v :: !l);
  Int_set.of_list !l

let in_labelled_with t w = labelled_with t t.lin w

let out_labelled_with t w = labelled_with t t.lout w

(* {2 Queries} *)

(* [f dout din] for every center common to Lout(u) and Lin(v), [iu] and
   [iv] their slots: a merge of two base rows, otherwise the shorter row
   probed against the other *)
let iter_common t u iu v iv f =
  let o = t.lout and n = t.lin in
  match (find_repl o u, find_repl n v) with
  | None, None ->
    let ob = o.base and nb = n.base in
    let olo = if iu < 0 then 0 else ob.off.(iu) and ohi = if iu < 0 then 0 else ob.off.(iu + 1) in
    let nlo = if iv < 0 then 0 else nb.off.(iv) and nhi = if iv < 0 then 0 else nb.off.(iv + 1) in
    let i = ref olo and j = ref nlo in
    while !i < ohi && !j < nhi do
      let a = Array.unsafe_get ob.ctr !i and b = Array.unsafe_get nb.ctr !j in
      if a < b then incr i
      else if b < a then incr j
      else begin
        f (dist_at ob.dist !i) (dist_at nb.dist !j);
        incr i;
        incr j
      end
    done
  | _ ->
    if cardinal t o u <= cardinal t n v then
      iter_row t o u (fun w du ->
          let dv = row_dist n v iv w in
          if dv >= 0 then f du dv)
    else
      iter_row t n v (fun w dv ->
          let du = row_dist o u iu w in
          if du >= 0 then f du dv)

exception Found

(* each node's slot is looked up once, not once per row read:
   join.psg.build_psg asks this for every link target and source of a
   partition *)
let connected t u v =
  let iu = slot t.keys u and iv = slot t.keys v in
  if not (node_at t iu u && node_at t iv v) then false
  else if u = v then true
  else
    (* implicit self entries: u ∈ Lout(u), v ∈ Lin(v) *)
    row_dist t.lout u iu v >= 0
    || row_dist t.lin v iv u >= 0
    ||
    match iter_common t u iu v iv (fun _ _ -> raise_notrace Found) with
    | () -> false
    | exception Found -> true

let dist t u v =
  let iu = slot t.keys u and iv = slot t.keys v in
  if not (node_at t iu u && node_at t iv v) then None
  else if u = v then Some 0
  else begin
    (* implicit centers: w = u (dout 0) and w = v (din 0) *)
    let best = ref max_int in
    let consider d = if d >= 0 && d < !best then best := d in
    consider (row_dist t.lin v iv u);
    consider (row_dist t.lout u iu v);
    iter_common t u iu v iv (fun du dv -> consider (du + dv));
    if !best = max_int then None else Some !best
  end

(* the node, each center of its labels on [own], and every node naming
   one of those centers on [other] *)
let reach_set t ~own ~other u =
  let acc = Ihs.create () in
  if mem_node t u then begin
    Ihs.add acc u;
    let via_center w =
      Ihs.add acc w;
      iter_by t other w (Ihs.add acc)
    in
    via_center u;
    iter_row t own u (fun w _ -> via_center w)
  end;
  acc

let descendants t u = reach_set t ~own:t.lout ~other:t.lin u

let ancestors t v = reach_set t ~own:t.lin ~other:t.lout v

(* {2 Writing to the overlay} *)

let base_has t s v c =
  let lo, hi = base_range t s v in
  search s.base.ctr lo hi c >= 0

let delta tbl c =
  match Itbl.find_opt tbl c with
  | Some d -> d
  | None ->
    let d = Ihs.create ~initial:4 () in
    Itbl.add tbl c d;
    d

let drop tbl c v = match Itbl.find_opt tbl c with Some d -> Ihs.remove d v | None -> ()

(* the backward deltas after [(node, center)] entered or left [node]'s row *)
let note_added t s ~node ~center =
  if base_has t s node center then drop s.b_del center node
  else Ihs.add (delta s.b_add center) node

let note_removed t s ~node ~center =
  if base_has t s node center then Ihs.add (delta s.b_del center) node
  else drop s.b_add center node

(* [v]'s row on [s] in the overlay, copied from the base on first write *)
let own_row t s v =
  match Itbl.find_opt s.repl v with
  | Some r -> r
  | None ->
    let b = s.base and lo, hi = base_range t s v in
    let r = Itbl.create (max 4 (hi - lo)) in
    for j = lo to hi - 1 do
      Itbl.replace r b.ctr.(j) (dist_at b.dist j)
    done;
    Itbl.add s.repl v r;
    r

let add_entry t s ~node ~center ~dist =
  if dist < 0 then invalid_arg "Cover: negative distance";
  if node <> center then begin
    if dist > 0 then ignore (pack_entry ~node ~center : int);
    add_node t node;
    let r = own_row t s node in
    match Itbl.find_opt r center with
    | None ->
      Itbl.replace r center dist;
      note_added t s ~node ~center;
      s.count <- s.count + 1;
      notify t node
    | Some d ->
      if dist < d then begin
        Itbl.replace r center dist;
        notify t node
      end
  end

let add_in ?(dist = 0) t ~node ~center = add_entry t t.lin ~node ~center ~dist

let add_out ?(dist = 0) t ~node ~center = add_entry t t.lout ~node ~center ~dist

let union_into ~dst src =
  iter_nodes src (add_node dst);
  List.iter
    (fun (d, s) ->
      iter_nodes src (fun node ->
          iter_row src s node (fun center dist -> add_entry dst d ~node ~center ~dist)))
    [ (dst.lin, src.lin); (dst.lout, src.lout) ]

let set_labels t s node set =
  add_node t node;
  let r = own_row t s node in
  let changed = ref false in
  let gone = Itbl.fold (fun w _ acc -> if Int_set.mem w set then acc else w :: acc) r [] in
  List.iter
    (fun w ->
      Itbl.remove r w;
      note_removed t s ~node ~center:w;
      s.count <- s.count - 1;
      changed := true)
    gone;
  Int_set.iter
    (fun w ->
      if w <> node && not (Itbl.mem r w) then begin
        Itbl.replace r w 0;
        note_added t s ~node ~center:w;
        s.count <- s.count + 1;
        changed := true
      end)
    set;
  if !changed then notify t node

let set_lin t node set = set_labels t t.lin node set

let set_lout t node set = set_labels t t.lout node set

let remove_node t v =
  if mem_node t v then begin
    set_lin t v Int_set.empty;
    set_lout t v Int_set.empty;
    (* entries naming v as a center *)
    let strip s =
      let namers = ref [] in
      iter_by t s v (fun n -> namers := n :: !namers);
      List.iter
        (fun n ->
          Itbl.remove (own_row t s n) v;
          note_removed t s ~node:n ~center:v;
          s.count <- s.count - 1;
          notify t n)
        !namers
    in
    strip t.lin;
    strip t.lout;
    if Ihs.mem t.added v then Ihs.remove t.added v else Ihs.add t.removed v;
    (* an empty row that hides no base row is no overlay at all *)
    List.iter
      (fun s ->
        let lo, hi = base_range t s v in
        if lo = hi then Itbl.remove s.repl v)
      [ t.lin; t.lout ];
    notify t v
  end

(* {2 Compaction} *)

let clean t =
  Itbl.length t.lin.repl = 0
  && Itbl.length t.lout.repl = 0
  && Ihs.is_empty t.added
  && Ihs.is_empty t.removed

let compact t =
  if not (clean t) then begin
    let nodes =
      let a = Array.make (n_nodes t) 0 and i = ref 0 in
      iter_nodes t (fun v ->
          a.(!i) <- v;
          incr i);
      sort_uniq a
    in
    let fill dir i a =
      let s = side t dir and v = nodes.(i) in
      match find_repl s v with
      | Some r ->
        let cs = Array.of_seq (Itbl.to_seq_keys r) in
        Array.sort Int.compare cs;
        Array.iter (fun c -> push a c (Itbl.find r c)) cs
      | None ->
        let b = s.base and lo, hi = base_range t s v in
        for j = lo to hi - 1 do
          push a b.ctr.(j) (dist_at b.dist j)
        done
    in
    install t (freeze ~nodes ~cap:(fun dir -> (side t dir).count) fill)
  end

let frozen t =
  compact t;
  { keys = t.keys; lin = t.lin.base; lout = t.lout.base }

(* {2 Building frozen covers} *)

(* [f v p0 p1] for each node run [packed.(p0) .. packed.(p1 - 1)] *)
let iter_runs packed f =
  let n = Array.length packed and i = ref 0 in
  while !i < n do
    let v = packed.(!i) lsr pack_bits in
    let j = ref (!i + 1) in
    while !j < n && packed.(!j) lsr pack_bits = v do
      incr j
    done;
    f v !i !j;
    i := !j
  done

let merge covers ~lout ~lin =
  Array.iter compact covers;
  let nodes =
    let heads = Dyn_array.create () in
    let named packed =
      iter_runs packed (fun v p0 p1 ->
          let rec named p = p < p1 && (packed.(p) land pack_mask <> v || named (p + 1)) in
          if named p0 then Dyn_array.push heads v)
    in
    named lout;
    named lin;
    let ids = ref [ Dyn_array.to_array heads ] in
    Array.iter
      (fun c ->
        let a = Array.make c.base_nodes 0 and k = ref 0 in
        Array.iteri
          (fun i v ->
            if Bytes.get c.registered i <> '\000' then begin
              a.(!k) <- v;
              incr k
            end)
          c.keys;
        ids := a :: !ids)
      covers;
    sort_uniq (Array.concat !ids)
  in
  (* each node's row: [owner] names the one cover registering it *)
  let nr = Array.length nodes in
  let owner = Array.make nr (-1) and oslot = Array.make nr 0 in
  Array.iteri
    (fun j c ->
      Array.iteri
        (fun s v ->
          if Bytes.get c.registered s <> '\000' then begin
            let r = slot nodes v in
            if owner.(r) >= 0 then
              invalid_arg (Printf.sprintf "Cover.merge: node %d is in two covers" v);
            owner.(r) <- j;
            oslot.(r) <- s
          end)
        c.keys)
    covers;
  let cursor = [| 0; 0 |] in
  let fill dir i a =
    let v = nodes.(i) in
    let packed, k = match dir with In -> (lin, 0) | Out -> (lout, 1) in
    let n = Array.length packed in
    while cursor.(k) < n && packed.(cursor.(k)) lsr pack_bits < v do
      cursor.(k) <- cursor.(k) + 1
    done;
    let p0 = cursor.(k) in
    while cursor.(k) < n && packed.(cursor.(k)) lsr pack_bits = v do
      cursor.(k) <- cursor.(k) + 1
    done;
    let p1 = cursor.(k) in
    (* the run's centers, without self-entries and repeats *)
    let skip p = packed.(p) land pack_mask = v || (p > p0 && packed.(p) = packed.(p - 1)) in
    (* the node's sorted row and the sorted run: a merge, the run at
       distance 0 *)
    let b, lo, hi =
      if owner.(i) < 0 then (no_rows, 0, 0)
      else
        let b = (side covers.(owner.(i)) dir).base in
        (b, b.off.(oslot.(i)), b.off.(oslot.(i) + 1))
    in
    let x = ref lo and p = ref p0 in
    while !x < hi || !p < p1 do
      if !p < p1 && skip !p then incr p
      else if !p >= p1 then begin
        push a b.ctr.(!x) (dist_at b.dist !x);
        incr x
      end
      else begin
        let c = packed.(!p) land pack_mask in
        if !x >= hi || c < b.ctr.(!x) then begin
          push a c 0;
          incr p
        end
        else if b.ctr.(!x) < c then begin
          push a b.ctr.(!x) (dist_at b.dist !x);
          incr x
        end
        else begin
          push a c 0;
          incr x;
          incr p
        end
      end
    done
  in
  let cap dir =
    Array.fold_left (fun acc c -> acc + (side c dir).count) 0 covers
    + Array.length (match dir with In -> lin | Out -> lout)
  in
  of_frozen (freeze ~nodes ~cap fill)

let of_closure clo =
  let nodes =
    let a = Array.make (Closure.n_nodes clo) 0 and i = ref 0 in
    Closure.iter_nodes clo (fun v ->
        a.(!i) <- v;
        incr i);
    sort_uniq a
  in
  let fill dir i a =
    match dir with
    | In -> ()
    | Out ->
      let v = nodes.(i) in
      Int_set.iter (fun w -> if w <> v then push a w 0) (Closure.succs clo v)
  in
  let cap = function In -> 0 | Out -> Closure.n_connections clo - Array.length nodes in
  of_frozen (freeze ~nodes ~cap fill)
