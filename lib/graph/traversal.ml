module Ihs = Hopi_util.Int_hashset

let reachable_generic iter_next g sources ~avoid =
  let seen = Ihs.create () in
  let q = Queue.create () in
  List.iter
    (fun s ->
      if Digraph.mem_node g s && (not (avoid s)) && not (Ihs.mem seen s) then begin
        Ihs.add seen s;
        Queue.add s q
      end)
    sources;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    iter_next g u (fun v ->
        if (not (avoid v)) && not (Ihs.mem seen v) then begin
          Ihs.add seen v;
          Queue.add v q
        end)
  done;
  seen

let no_avoid _ = false

let reachable g sources = reachable_generic Digraph.iter_succ g sources ~avoid:no_avoid

let reachable_backward g sources =
  reachable_generic Digraph.iter_pred g sources ~avoid:no_avoid

let reachable_avoiding g ~avoid sources =
  reachable_generic Digraph.iter_succ g sources ~avoid

let bfs_distances g src =
  let dist = Hashtbl.create 64 in
  if Digraph.mem_node g src then begin
    Hashtbl.add dist src 0;
    let q = Queue.create () in
    Queue.add src q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      let du = Hashtbl.find dist u in
      Digraph.iter_succ g u (fun v ->
          if not (Hashtbl.mem dist v) then begin
            Hashtbl.add dist v (du + 1);
            Queue.add v q
          end)
    done
  end;
  dist

let is_reachable g u v =
  if not (Digraph.mem_node g u && Digraph.mem_node g v) then false
  else if u = v then true
  else begin
    let seen = Ihs.create () in
    let q = Queue.create () in
    Ihs.add seen u;
    Queue.add u q;
    let found = ref false in
    while (not !found) && not (Queue.is_empty q) do
      let x = Queue.pop q in
      Digraph.iter_succ g x (fun y ->
          if y = v then found := true
          else if not (Ihs.mem seen y) then begin
            Ihs.add seen y;
            Queue.add y q
          end)
    done;
    !found
  end
