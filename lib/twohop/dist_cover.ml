type t = {
  lin : (int, (int, int) Hashtbl.t) Hashtbl.t;
  lout : (int, (int, int) Hashtbl.t) Hashtbl.t;
  mutable size : int;
}

let create ?(initial = 64) () = { lin = Hashtbl.create initial; lout = Hashtbl.create initial; size = 0 }

let bucket h v =
  match Hashtbl.find_opt h v with
  | Some m -> m
  | None ->
    let m = Hashtbl.create 4 in
    Hashtbl.add h v m;
    m

let add_node t v =
  ignore (bucket t.lin v);
  ignore (bucket t.lout v)

let mem_node t v = Hashtbl.mem t.lin v

let n_nodes t = Hashtbl.length t.lin

let iter_nodes t f = Hashtbl.iter (fun v _ -> f v) t.lin

let add_entry t h ~node ~center ~dist =
  if node <> center then begin
    add_node t node;
    let m = bucket h node in
    match Hashtbl.find_opt m center with
    | Some d when d <= dist -> ()
    | Some _ -> Hashtbl.replace m center dist
    | None ->
      Hashtbl.add m center dist;
      t.size <- t.size + 1
  end

let add_in t ~node ~center ~dist = add_entry t t.lin ~node ~center ~dist

let add_out t ~node ~center ~dist = add_entry t t.lout ~node ~center ~dist

let get h v =
  match Hashtbl.find_opt h v with
  | Some m -> m
  | None -> Hashtbl.create 1

let dist t u v =
  if not (mem_node t u && mem_node t v) then None
  else if u = v then Some 0
  else begin
    let ou = get t.lout u and iv = get t.lin v in
    let best = ref max_int in
    (* implicit centers: w = u (dout 0) and w = v (din 0) *)
    (match Hashtbl.find_opt iv u with
     | Some d -> if d < !best then best := d
     | None -> ());
    (match Hashtbl.find_opt ou v with
     | Some d -> if d < !best then best := d
     | None -> ());
    (* the sum dout + din is symmetric, so iterate the smaller table *)
    let small, large =
      if Hashtbl.length ou <= Hashtbl.length iv then (ou, iv) else (iv, ou)
    in
    Hashtbl.iter
      (fun w d1 ->
        match Hashtbl.find_opt large w with
        | Some d2 -> if d1 + d2 < !best then best := d1 + d2
        | None -> ())
      small;
    if !best = max_int then None else Some !best
  end

let connected t u v = dist t u v <> None

let iter_lin t v f = Hashtbl.iter f (get t.lin v)

let iter_lout t v f = Hashtbl.iter f (get t.lout v)

let size t = t.size

let union_into ~dst src =
  iter_nodes src (fun v ->
      add_node dst v;
      iter_lin src v (fun w d -> add_in dst ~node:v ~center:w ~dist:d);
      iter_lout src v (fun w d -> add_out dst ~node:v ~center:w ~dist:d))

let clear_side t h v =
  match Hashtbl.find_opt h v with
  | None -> ()
  | Some m ->
    if Hashtbl.length m > 0 then begin
      t.size <- t.size - Hashtbl.length m;
      Hashtbl.replace h v (Hashtbl.create 4)
    end

let clear_lout t v = clear_side t t.lout v

let clear_lin t v = clear_side t t.lin v

let filter_side t h v ~keep =
  match Hashtbl.find_opt h v with
  | None -> ()
  | Some m ->
    let dead = Hashtbl.fold (fun w _ acc -> if keep w then acc else w :: acc) m [] in
    List.iter
      (fun w ->
        Hashtbl.remove m w;
        t.size <- t.size - 1)
      dead

let filter_lin t v ~keep = filter_side t t.lin v ~keep

let filter_lout t v ~keep = filter_side t t.lout v ~keep

let remove_node t v =
  if mem_node t v then begin
    clear_lin t v;
    clear_lout t v;
    Hashtbl.remove t.lin v;
    Hashtbl.remove t.lout v;
    (* entries naming v as a center *)
    let strip h =
      Hashtbl.iter
        (fun _ m ->
          if Hashtbl.mem m v then begin
            Hashtbl.remove m v;
            t.size <- t.size - 1
          end)
        h
    in
    strip t.lin;
    strip t.lout
  end
