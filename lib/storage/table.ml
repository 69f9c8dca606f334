type t = { fwd : Btree.t; bwd : Btree.t }

let of_trees ~fwd ~bwd = { fwd; bwd }

let trees t = (t.fwd, t.bwd)

(* Sort, bulk-load the forward tree, flip every row to its backward form
   in place, sort again, bulk-load the backward tree. *)
let bulk pgr rows ~compare ~key ~flip =
  let tree () =
    Array.sort compare rows;
    let i = ref 0 in
    Btree.bulk_load pgr ~next:(fun () ->
        if !i >= Array.length rows then None
        else begin
          let r = rows.(!i) in
          incr i;
          Some (key r)
        end)
  in
  let fwd = tree () in
  Array.iteri (fun j r -> rows.(j) <- flip r) rows;
  let bwd = tree () in
  { fwd; bwd }

let pack_bits = 31  (* components are i32-bounded; ids are >= 0 *)

let pack_mask = (1 lsl pack_bits) - 1

let pack ~id ~label =
  if id < 0 || id > pack_mask || label < 0 || label > pack_mask then
    invalid_arg (Printf.sprintf "Table.pack: id out of range (%d, %d)" id label);
  (id lsl pack_bits) lor label

let of_pairs pgr rows =
  bulk pgr rows
    ~compare:(fun (x : int) y -> compare x y)
    ~key:(fun x -> (x lsr pack_bits, x land pack_mask, 0))
    ~flip:(fun x -> ((x land pack_mask) lsl pack_bits) lor (x lsr pack_bits))

let of_rows pgr rows =
  let compare (a1, b1, c1) (a2, b2, c2) =
    let c = Int.compare a1 a2 in
    if c <> 0 then c
    else
      let c = Int.compare b1 b2 in
      if c <> 0 then c else Int.compare c1 c2
  in
  bulk pgr rows ~compare ~key:Fun.id ~flip:(fun (id, label, dist) -> (label, id, dist))

let mem t ~id ~label =
  let found = ref false in
  Btree.iter_prefix2 t.fwd id label (fun _ -> found := true);
  !found

let iter_by_id t id f =
  Btree.iter_prefix1 t.fwd id (fun (_, label, dist) -> f ~label ~dist)

let iter_by_label t label f =
  Btree.iter_prefix1 t.bwd label (fun (_, id, dist) -> f ~id ~dist)

let length t = Btree.length t.fwd
