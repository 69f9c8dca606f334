module Int_set = Hopi_util.Int_set
module Bitrow = Hopi_util.Bitrow

(* The dense kernel behind every entry point.  Nodes are visited in
   [Digraph.iter_nodes] order with their successors in CSR form; one
   iterative Tarjan pass numbers the SCCs in emission order, so every SCC
   a component reaches is finished before it, and gives the members of
   each SCC consecutive *local numbers* as it emits it.  Everything a
   component reaches therefore has a smaller local number than its last
   member.  [reach.(p)] is the set of local numbers SCC [p] reaches (its
   own members included) as a {!Bitrow} from word [lo.(p)]: it covers only
   the words from its lowest reached number up to its last member. *)
type kernel = {
  ids : int array;  (* local number -> node id *)
  comp : int array;  (* local number -> SCC *)
  first : int array;  (* SCC -> its first local number; [n_comp] -> n *)
  lo : int array;  (* SCC -> first word of its reach row *)
  reach : int array array;
}

let bits = Bitrow.bits

(* One iterative Tarjan pass over the CSR graph [(off, succ)] on nodes
   [0 .. n - 1]: roots ascending, each node's successors in row order.  It
   numbers the SCCs in emission order into [comp] (all [-1] on entry;
   [-1] also means "not yet in an SCC"), so every SCC a component reaches
   is emitted before it.  [emit p stack bottom top] runs as SCC [p] is
   emitted, once [comp] holds [p] for its members [stack.(bottom)] ..
   [stack.(top - 1)].  Answers the number of SCCs. *)
let tarjan ~off ~succ ~comp emit =
  let n = Array.length off - 1 in
  let index = Array.make n (-1) and link = Array.make n 0 in
  let stack = Array.make n 0 and sp = ref 0 in
  let call = Array.make n 0 and next = Array.make n 0 and cp = ref 0 in
  let counter = ref 0 and n_comp = ref 0 in
  let enter v =
    index.(v) <- !counter;
    link.(v) <- !counter;
    incr counter;
    stack.(!sp) <- v;
    incr sp;
    call.(!cp) <- v;
    next.(!cp) <- off.(v);
    incr cp
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      enter root;
      while !cp > 0 do
        let v = call.(!cp - 1) and e = next.(!cp - 1) in
        if e < off.(v + 1) then begin
          next.(!cp - 1) <- e + 1;
          let w = succ.(e) in
          (* on the stack = entered and not yet in an SCC *)
          if index.(w) < 0 then enter w
          else if comp.(w) < 0 && index.(w) < link.(v) then link.(v) <- index.(w)
        end
        else begin
          decr cp;
          if link.(v) = index.(v) then begin
            let p = !n_comp in
            incr n_comp;
            let bottom = ref (!sp - 1) in
            while stack.(!bottom) <> v do
              decr bottom
            done;
            for k = !bottom to !sp - 1 do
              comp.(stack.(k)) <- p
            done;
            emit p stack !bottom !sp;
            sp := !bottom
          end;
          if !cp > 0 then begin
            let u = call.(!cp - 1) in
            if link.(v) < link.(u) then link.(u) <- link.(v)
          end
        end
      done
    end
  done;
  !n_comp

let intervals ~off ~succ =
  let n = Array.length off - 1 in
  let post = Array.make n (-1) and low = Array.make n 0 in
  (* an SCC's [low] is the least of its own [post] and its successors'
     [low]: every other SCC it enters was emitted, and got its [low],
     before it *)
  let emit p stack bottom top =
    let l = ref p in
    for k = bottom to top - 1 do
      let x = stack.(k) in
      for e = off.(x) to off.(x + 1) - 1 do
        let y = succ.(e) in
        if post.(y) <> p && low.(y) < !l then l := low.(y)
      done
    done;
    for k = bottom to top - 1 do
      low.(stack.(k)) <- !l
    done
  in
  ignore (tarjan ~off ~succ ~comp:post emit : int);
  (post, low)

let kernel g =
  let ids, off, succ = Digraph.csr g ~pred:false in
  let n = Array.length ids in
  let comp = Array.make n (-1) in
  let first = Array.make (n + 1) n and lo = Array.make n 0 and reach = Array.make n [||] in
  let local = Array.make n 0 and mark = Array.make n (-1) and seen = Array.make n 0 in
  let n_local = ref 0 in
  (* number SCC [p]'s members; its reach is its own members plus the
     reach of every other SCC one of its edges enters, collected once
     each into [seen] *)
  let emit p stack bottom top =
    let f = !n_local in
    first.(p) <- f;
    for k = bottom to top - 1 do
      local.(stack.(k)) <- f + k - bottom
    done;
    n_local := f + top - bottom;
    let l = ref (f / bits) and n_seen = ref 0 in
    for k = bottom to top - 1 do
      let x = stack.(k) in
      for e = off.(x) to off.(x + 1) - 1 do
        let q = comp.(succ.(e)) in
        if q <> p && mark.(q) <> p then begin
          mark.(q) <- p;
          seen.(!n_seen) <- q;
          incr n_seen;
          if lo.(q) < !l then l := lo.(q)
        end
      done
    done;
    let l = !l in
    let r = Array.make (((!n_local - 1) / bits) + 1 - l) 0 in
    for x = f to !n_local - 1 do
      r.((x / bits) - l) <- r.((x / bits) - l) lor (1 lsl (x mod bits))
    done;
    for s = 0 to !n_seen - 1 do
      let q = seen.(s) in
      let rq = reach.(q) and d = lo.(q) - l in
      for i = 0 to Array.length rq - 1 do
        r.(d + i) <- r.(d + i) lor rq.(i)
      done
    done;
    lo.(p) <- l;
    reach.(p) <- r
  in
  let n_comp = tarjan ~off ~succ ~comp emit in
  let by_local = Array.make n 0 and comp_local = Array.make n 0 in
  Array.iteri
    (fun x l ->
      by_local.(l) <- ids.(x);
      comp_local.(l) <- comp.(x))
    local;
  {
    ids = by_local;
    comp = comp_local;
    first = Array.sub first 0 (n_comp + 1);
    lo = Array.sub lo 0 n_comp;
    reach = Array.sub reach 0 n_comp;
  }

(* does SCC [p] reach local number [x]? *)
let reaches k p x = Bitrow.mem ~lo:k.lo.(p) k.reach.(p) x

let n_comp k = Array.length k.reach

let size k p = k.first.(p + 1) - k.first.(p)

let total_connections k =
  let total = ref 0 in
  for p = 0 to n_comp k - 1 do
    total := !total + (size k p * Bitrow.count k.reach.(p))
  done;
  !total

let count_connections g = total_connections (kernel g)

let succs_among g ~from ~among =
  let k = kernel g in
  let number = Hashtbl.create (Array.length k.ids) in
  Array.iteri (fun x v -> Hashtbl.replace number v x) k.ids;
  let local v =
    match Hashtbl.find_opt number v with
    | Some x -> x
    | None -> invalid_arg "Closure.succs_among: not a node of the graph"
  in
  let among_local = Array.map local among in
  (* one pass of bit tests per source, into a buffer shared by all *)
  let buf = Array.make (Array.length among) 0 in
  Array.map
    (fun u ->
      let p = k.comp.(local u) in
      let n = ref 0 in
      for j = 0 to Array.length among - 1 do
        if reaches k p among_local.(j) then begin
          buf.(!n) <- j;
          incr n
        end
      done;
      Array.sub buf 0 !n)
    from

(* The transposed reach sets, per SCC: its ancestor SCCs, ascending, are
   [up.(up_off.(q))] .. [up.(up_off.(q + 1) - 1)].  Only the cover
   builders ask for ancestors, so this is built on first use. *)
type ancestors = { up_off : int array; up : int array }

type t = {
  k : kernel;
  number : (int, int) Hashtbl.t;  (* node id -> local number *)
  n_connections : int;
  mutable anc : ancestors option;
}

let compute g =
  let k = kernel g in
  let number = Hashtbl.create (Array.length k.ids) in
  Array.iteri (fun x v -> Hashtbl.replace number v x) k.ids;
  { k; number; n_connections = total_connections k; anc = None }

(* [f q] for every SCC [q] SCC [p] reaches, ascending: one call per SCC at
   its first member's bit *)
let iter_reached_comps k p f =
  Bitrow.iter ~lo:k.lo.(p) k.reach.(p) (fun x ->
      let q = k.comp.(x) in
      if k.first.(q) = x then f q)

let index_ancestors t =
  match t.anc with
  | Some a -> a
  | None ->
    let k = t.k in
    let nc = n_comp k in
    let up_off = Array.make (nc + 1) 0 in
    for p = 0 to nc - 1 do
      iter_reached_comps k p (fun q -> up_off.(q + 1) <- up_off.(q + 1) + 1)
    done;
    for q = 0 to nc - 1 do
      up_off.(q + 1) <- up_off.(q + 1) + up_off.(q)
    done;
    let fill = Array.sub up_off 0 nc and up = Array.make up_off.(nc) 0 in
    for p = 0 to nc - 1 do
      iter_reached_comps k p (fun q ->
          up.(fill.(q)) <- p;
          fill.(q) <- fill.(q) + 1)
    done;
    let a = { up_off; up } in
    t.anc <- Some a;
    a

let n_connections t = t.n_connections

let n_nodes t = Array.length t.k.ids

let number t v = Option.value ~default:(-1) (Hashtbl.find_opt t.number v)

let id t x = t.k.ids.(x)

let reach_lo t x = t.k.lo.(t.k.comp.(x))

let reach_row t x = t.k.reach.(t.k.comp.(x))

let iter_ancestors t x f =
  let a = index_ancestors t and k = t.k in
  let q = k.comp.(x) in
  for i = a.up_off.(q) to a.up_off.(q + 1) - 1 do
    let p = a.up.(i) in
    for y = k.first.(p) to k.first.(p + 1) - 1 do
      f y
    done
  done

let mem t u v =
  let x = number t u and y = number t v in
  x >= 0 && y >= 0 && reaches t.k t.k.comp.(x) y

let id_set t iter x =
  let ids = ref [] in
  iter x (fun y -> ids := t.k.ids.(y) :: !ids);
  Int_set.of_list !ids

let iter_succs t x f = Bitrow.iter ~lo:(reach_lo t x) (reach_row t x) f

let succs t v =
  let x = number t v in
  if x < 0 then Int_set.empty else id_set t (iter_succs t) x

let preds t v =
  let x = number t v in
  if x < 0 then Int_set.empty else id_set t (iter_ancestors t) x

let iter_nodes t f = Array.iter f t.k.ids
