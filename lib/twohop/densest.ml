type result = {
  density : float;
  c_in : int array;
  c_out : int array;
  n_edges : int;
}

(* Left node [i] is [left.(i)] with edges [dst.(off.(i))] ..
   [dst.(off.(i + 1) - 1)], each a dense right index; right node [j] is
   [right.(j)], and [index.(v)] is [v]'s dense index while [v] is in the
   graph ([-1] otherwise).  In the peel, left [i] is node [i] and right [j]
   node [n_left + j]. *)
type t = {
  mutable left : int array;
  mutable off : int array;
  mutable n_left : int;
  mutable dst : int array;
  mutable n_edges : int;
  mutable right : int array;
  mutable n_right : int;
  mutable index : int array;
  (* peel scratch, over the nodes of both sides *)
  mutable deg : int array;
  mutable adj_off : int array;
  mutable adj : int array;
  mutable head : int array;  (* degree -> first queued node *)
  mutable next : int array;
  mutable prev : int array;
  mutable order : int array;  (* removal order *)
}

let create () =
  {
    left = [||]; off = [| 0 |]; n_left = 0; dst = [||]; n_edges = 0; right = [||];
    n_right = 0; index = [||]; deg = [||]; adj_off = [||]; adj = [||]; head = [||];
    next = [||]; prev = [||]; order = [||];
  }

(* [a] grown to at least [n] slots, new ones [fill] *)
let grow a n fill =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let start t =
  for j = 0 to t.n_right - 1 do
    t.index.(t.right.(j)) <- -1
  done;
  t.n_left <- 0;
  t.n_edges <- 0;
  t.n_right <- 0

let edges t = t.n_edges

let add_left t u =
  (* a previous left node without edges gives its slot up *)
  if t.n_left > 0 && t.off.(t.n_left - 1) = t.n_edges then t.n_left <- t.n_left - 1;
  t.left <- grow t.left (t.n_left + 1) 0;
  t.off <- grow t.off (t.n_left + 2) 0;
  t.left.(t.n_left) <- u;
  t.off.(t.n_left) <- t.n_edges;
  t.n_left <- t.n_left + 1;
  t.off.(t.n_left) <- t.n_edges

let add_edge t v =
  t.index <- grow t.index (v + 1) (-1);
  if t.index.(v) < 0 then begin
    t.right <- grow t.right (t.n_right + 1) 0;
    t.index.(v) <- t.n_right;
    t.right.(t.n_right) <- v;
    t.n_right <- t.n_right + 1
  end;
  t.dst <- grow t.dst (t.n_edges + 1) 0;
  t.dst.(t.n_edges) <- t.index.(v);
  t.n_edges <- t.n_edges + 1;
  t.off.(t.n_left) <- t.n_edges

let run t =
  if t.n_left > 0 && t.off.(t.n_left - 1) = t.n_edges then t.n_left <- t.n_left - 1;
  let nl = t.n_left and m = t.n_edges in
  if m = 0 then None
  else begin
    let n = nl + t.n_right in
    t.deg <- grow t.deg n 0;
    t.adj_off <- grow t.adj_off (n + 1) 0;
    t.adj <- grow t.adj (2 * m) 0;
    t.next <- grow t.next n 0;
    t.prev <- grow t.prev n 0;
    t.order <- grow t.order n 0;
    let deg = t.deg and adj_off = t.adj_off and adj = t.adj and off = t.off and dst = t.dst in
    (* both sides' adjacency as one CSR: a left node's neighbours are its
       edges, a right node's the left nodes that enter it *)
    Array.fill deg 0 n 0;
    for i = 0 to nl - 1 do
      deg.(i) <- off.(i + 1) - off.(i);
      for e = off.(i) to off.(i + 1) - 1 do
        deg.(nl + dst.(e)) <- deg.(nl + dst.(e)) + 1
      done
    done;
    adj_off.(0) <- 0;
    for x = 0 to n - 1 do
      adj_off.(x + 1) <- adj_off.(x) + deg.(x)
    done;
    (* [next] is free until the queue below fills it: here it holds each
       right node's next free adjacency slot *)
    let fill = t.next in
    Array.blit adj_off nl fill 0 t.n_right;
    for i = 0 to nl - 1 do
      for e = off.(i) to off.(i + 1) - 1 do
        let j = dst.(e) in
        adj.(e) <- nl + j;
        adj.(fill.(j)) <- i;
        fill.(j) <- fill.(j) + 1
      done
    done;
    (* the bucket queue: doubly linked lists per degree; queued in
       descending node order, so each list starts at its lowest node *)
    let max_deg = ref 0 in
    for x = 0 to n - 1 do
      if deg.(x) > !max_deg then max_deg := deg.(x)
    done;
    t.head <- grow t.head (!max_deg + 1) (-1);
    let head = t.head and next = t.next and prev = t.prev in
    Array.fill head 0 (!max_deg + 1) (-1);
    let push x =
      let d = deg.(x) in
      prev.(x) <- -1;
      next.(x) <- head.(d);
      if head.(d) >= 0 then prev.(head.(d)) <- x;
      head.(d) <- x
    in
    let unlink x =
      if prev.(x) >= 0 then next.(prev.(x)) <- next.(x) else head.(deg.(x)) <- next.(x);
      if next.(x) >= 0 then prev.(next.(x)) <- prev.(x)
    in
    for x = n - 1 downto 0 do
      push x
    done;
    (* peel: [deg.(x) < 0] marks a removed node *)
    let cur_edges = ref m and min_deg = ref 0 in
    let best_edges = ref m and best_nodes = ref n and best_k = ref 0 in
    for k = 0 to n - 1 do
      while head.(!min_deg) < 0 do
        incr min_deg
      done;
      let x = head.(!min_deg) in
      unlink x;
      t.order.(k) <- x;
      cur_edges := !cur_edges - deg.(x);
      deg.(x) <- -1;
      for e = adj_off.(x) to adj_off.(x + 1) - 1 do
        let y = adj.(e) in
        if deg.(y) > 0 then begin
          unlink y;
          deg.(y) <- deg.(y) - 1;
          push y;
          if deg.(y) < !min_deg then min_deg := deg.(y)
        end
      done;
      (* strictly denser: [e / v > best_e / best_v] *)
      let nodes = n - k - 1 in
      if nodes > 0 && !cur_edges * !best_nodes > !best_edges * nodes then begin
        best_edges := !cur_edges;
        best_nodes := nodes;
        best_k := k + 1
      end
    done;
    (* the densest intermediate subgraph: the nodes not among the first
       [best_k] removals ([deg] reused as the removed flag) *)
    Array.fill deg 0 n 0;
    for k = 0 to !best_k - 1 do
      deg.(t.order.(k)) <- 1
    done;
    let pick lo hi id =
      let a = ref [] in
      for x = hi - 1 downto lo do
        if deg.(x) = 0 then a := id x :: !a
      done;
      Array.of_list !a
    in
    let c_in = pick 0 nl (fun i -> t.left.(i)) in
    let c_out = pick nl n (fun x -> t.right.(x - nl)) in
    Array.sort Int.compare c_out;
    Some
      {
        density = float_of_int !best_edges /. float_of_int !best_nodes;
        c_in;
        c_out;
        n_edges = !best_edges;
      }
  end
