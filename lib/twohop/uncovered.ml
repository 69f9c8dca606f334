module Ihs = Hopi_util.Int_hashset
module Closure = Hopi_graph.Closure

type t = { succ : (int, Ihs.t) Hashtbl.t; mutable count : int }

let create () = { succ = Hashtbl.create 64; count = 0 }

let add t u v =
  if u <> v then begin
    let s =
      match Hashtbl.find_opt t.succ u with
      | Some s -> s
      | None ->
        let s = Ihs.create () in
        Hashtbl.add t.succ u s;
        s
    in
    if not (Ihs.mem s v) then begin
      Ihs.add s v;
      t.count <- t.count + 1
    end
  end

let of_closure c =
  let t = create () in
  Closure.iter_pairs c (fun u v -> add t u v);
  t

let of_pairs pairs =
  let t = create () in
  List.iter (fun (u, v) -> add t u v) pairs;
  t

let count t = t.count

let is_empty t = t.count = 0

let mem t u v =
  match Hashtbl.find_opt t.succ u with
  | Some s -> Ihs.mem s v
  | None -> false

let remove t u v =
  match Hashtbl.find_opt t.succ u with
  | None -> ()
  | Some s ->
    if Ihs.mem s v then begin
      Ihs.remove s v;
      t.count <- t.count - 1;
      if Ihs.is_empty s then Hashtbl.remove t.succ u
    end

let iter_succ t u f =
  match Hashtbl.find_opt t.succ u with
  | Some s -> Ihs.iter f s
  | None -> ()

let succ_count t u =
  match Hashtbl.find_opt t.succ u with
  | Some s -> Ihs.cardinal s
  | None -> 0

let iter_sources t f = Hashtbl.iter (fun u _ -> f u) t.succ

let source_count t = Hashtbl.length t.succ

let choose t =
  let found = ref None in
  (try
     Hashtbl.iter
       (fun u s ->
         Ihs.iter
           (fun v ->
             found := Some (u, v);
             raise Exit)
           s)
       t.succ
   with Exit -> ());
  !found
