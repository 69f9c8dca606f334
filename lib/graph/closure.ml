module Int_set = Hopi_util.Int_set

type t = {
  succs : (int, Int_set.t) Hashtbl.t;  (* node -> descendants incl self *)
  preds : (int, Int_set.t) Hashtbl.t;  (* node -> ancestors incl self *)
  n_connections : int;
}

(* The dense kernel behind both entry points.  Nodes are numbered in
   [Digraph.iter_nodes] order with their successors in CSR form; one
   iterative Tarjan pass numbers the SCCs in emission order, so every SCC
   a component reaches is finished before it.  [reach.(p)] is the set of
   SCCs [p] reaches (itself included) as a word bitset of 62 bits per word,
   so no word uses the sign bit; it has [p / 62 + 1] words, since it holds
   no SCC above [p]. *)
type kernel = {
  ids : int array;  (* node number -> node id *)
  comp : int array;  (* node number -> SCC *)
  n_comp : int;
  size : int array;  (* SCC -> member count *)
  reach : int array array;
  big : int list;  (* the SCCs with more than one member *)
}

let bits = 62

let kernel g =
  let ids, off, succ = Digraph.csr g ~pred:false in
  let n = Array.length ids in
  let index = Array.make n (-1) and link = Array.make n 0 and comp = Array.make n (-1) in
  let stack = Array.make n 0 and sp = ref 0 in
  let call = Array.make n 0 and next = Array.make n 0 and cp = ref 0 in
  let size = Array.make n 0 and reach = Array.make n [||] and mark = Array.make n (-1) in
  let counter = ref 0 and n_comp = ref 0 and big = ref [] in
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
  (* pop [v]'s SCC [p] off the stack; its reach is its own bit plus the
     reach of every other SCC one of its edges enters *)
  let emit v =
    let p = !n_comp in
    incr n_comp;
    let bottom = ref (!sp - 1) in
    while stack.(!bottom) <> v do
      decr bottom
    done;
    for k = !bottom to !sp - 1 do
      comp.(stack.(k)) <- p
    done;
    let r = Array.make ((p / bits) + 1) 0 in
    r.(p / bits) <- 1 lsl (p mod bits);
    for k = !bottom to !sp - 1 do
      let x = stack.(k) in
      for e = off.(x) to off.(x + 1) - 1 do
        let q = comp.(succ.(e)) in
        if q <> p && mark.(q) <> p then begin
          mark.(q) <- p;
          let rq = reach.(q) in
          for i = 0 to Array.length rq - 1 do
            r.(i) <- r.(i) lor rq.(i)
          done
        end
      done
    done;
    reach.(p) <- r;
    size.(p) <- !sp - !bottom;
    if size.(p) > 1 then big := p :: !big;
    sp := !bottom
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
          if link.(v) = index.(v) then emit v;
          if !cp > 0 then begin
            let u = call.(!cp - 1) in
            if link.(v) < link.(u) then link.(u) <- link.(v)
          end
        end
      done
    end
  done;
  { ids; comp; n_comp = !n_comp; size; reach; big = !big }

let popcount x =
  let x = x - ((x lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f0f0f0f0f in
  (x * 0x0101010101010101) lsr 56

(* [f q] for every SCC [q] in [r], ascending *)
let iter_bits f r =
  Array.iteri
    (fun i w ->
      let w = ref w and q = ref (i * bits) in
      while !w <> 0 do
        if !w land 1 <> 0 then f !q;
        w := !w lsr 1;
        incr q
      done)
    r

(* nodes SCC [p] reaches: one per SCC in its reach set, plus [size - 1]
   more for each non-singleton one among them *)
let reached k p =
  let r = k.reach.(p) in
  let n = ref 0 in
  Array.iter (fun w -> n := !n + popcount w) r;
  List.iter
    (fun q -> if q <= p && r.(q / bits) land (1 lsl (q mod bits)) <> 0 then n := !n + k.size.(q) - 1)
    k.big;
  !n

let count_connections g =
  let k = kernel g in
  let total = ref 0 in
  for p = 0 to k.n_comp - 1 do
    total := !total + (k.size.(p) * reached k p)
  done;
  !total

let succs_among g ~from ~among =
  let k = kernel g in
  let number = Hashtbl.create (Array.length k.ids) in
  Array.iteri (fun x v -> Hashtbl.replace number v x) k.ids;
  let comp v =
    match Hashtbl.find_opt number v with
    | Some x -> k.comp.(x)
    | None -> invalid_arg "Closure.succs_among: not a node of the graph"
  in
  let among_comp = Array.map comp among in
  Array.map
    (fun u ->
      let p = comp u in
      let r = k.reach.(p) in
      let hit j =
        let q = among_comp.(j) in
        q <= p && r.(q / bits) land (1 lsl (q mod bits)) <> 0
      in
      let n = ref 0 in
      for j = 0 to Array.length among - 1 do
        if hit j then incr n
      done;
      let js = Array.make !n 0 and i = ref 0 in
      for j = 0 to Array.length among - 1 do
        if hit j then begin
          js.(!i) <- j;
          incr i
        end
      done;
      js)
    from

let compute g =
  let k = kernel g in
  let members = Array.make k.n_comp [] in
  Array.iteri (fun x p -> members.(p) <- k.ids.(x) :: members.(p)) k.comp;
  (* per SCC: the node ids it reaches ([down]) and those reaching it
     ([up], counted while [down] fills, then filled from the top) *)
  let n_up = Array.make k.n_comp 0 in
  let down =
    Array.init k.n_comp (fun p ->
        let a = Array.make (reached k p) 0 and i = ref 0 in
        iter_bits
          (fun q ->
            List.iter (fun v -> a.(!i) <- v; incr i) members.(q);
            n_up.(q) <- n_up.(q) + k.size.(p))
          k.reach.(p);
        a)
  in
  let up = Array.map (fun m -> Array.make m 0) n_up in
  for p = 0 to k.n_comp - 1 do
    iter_bits
      (fun q ->
        List.iter (fun u -> n_up.(q) <- n_up.(q) - 1; up.(q).(n_up.(q)) <- u) members.(p))
      k.reach.(p)
  done;
  let sorted a =
    Array.sort Int.compare a;
    Int_set.of_sorted_array_unsafe a
  in
  let down = Array.map sorted down and up = Array.map sorted up in
  (* inserted in [Digraph.iter_nodes] order into tables of the graph's
     size, as ever: [iter_nodes] below orders [Builder]'s greedy
     tie-breaks, so the stored covers depend on it *)
  let n = Array.length k.ids in
  let succs = Hashtbl.create n and preds = Hashtbl.create n and total = ref 0 in
  Array.iteri
    (fun x v ->
      let p = k.comp.(x) in
      Hashtbl.replace succs v down.(p);
      Hashtbl.replace preds v up.(p);
      total := !total + Int_set.cardinal down.(p))
    k.ids;
  { succs; preds; n_connections = !total }

let n_connections t = t.n_connections

let n_nodes t = Hashtbl.length t.succs

let succs t v =
  match Hashtbl.find_opt t.succs v with
  | Some s -> s
  | None -> Int_set.empty

let preds t v =
  match Hashtbl.find_opt t.preds v with
  | Some s -> s
  | None -> Int_set.empty

let mem t u v = Int_set.mem v (succs t u)

let iter_nodes t f = Hashtbl.iter (fun v _ -> f v) t.succs

let iter_pairs t f =
  Hashtbl.iter (fun u s -> Int_set.iter (fun v -> f u v) s) t.succs
