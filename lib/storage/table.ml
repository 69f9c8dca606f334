type t = { fwd : Btree.t; bwd : Btree.t }

let trees t = (t.fwd, t.bwd)

let pack_bits = 31  (* components are i32-bounded; ids are >= 0 *)

let pack_mask = (1 lsl pack_bits) - 1

let pack ~id ~label =
  if id < 0 || id > pack_mask || label < 0 || label > pack_mask then
    invalid_arg (Printf.sprintf "Table.pack: id out of range (%d, %d)" id label);
  (id lsl pack_bits) lor label

(* Sort, bulk-load the forward tree, flip every row to its backward form
   in place, sort again, bulk-load the backward tree. *)
let of_pairs pgr rows =
  let tree () =
    Array.sort Int.compare rows;
    let i = ref 0 in
    Btree.bulk_load pgr ~next:(fun () ->
        if !i >= Array.length rows then None
        else begin
          let x = rows.(!i) in
          incr i;
          Some (x lsr pack_bits, x land pack_mask, 0)
        end)
  in
  let fwd = tree () in
  Array.iteri (fun j x -> rows.(j) <- ((x land pack_mask) lsl pack_bits) lor (x lsr pack_bits)) rows;
  { fwd; bwd = tree () }

let mem t ~id ~label =
  let found = ref false in
  Btree.iter_prefix2 t.fwd id label (fun _ -> found := true);
  !found

let iter_by_id t id f =
  Btree.iter_prefix1 t.fwd id (fun (_, label, dist) -> f ~label ~dist)

let iter_by_label t label f =
  Btree.iter_prefix1 t.bwd label (fun (_, id, dist) -> f ~id ~dist)

let length t = Btree.length t.fwd
