(* A monotonically increasing counter.  [incr]/[add] bump the calling
   domain's own cell ([Cells]): no atomic, no allocation, safe from any
   domain (the multi-domain partition-cover workers in [Hopi_core.Build]
   and the socket server's frame workers record through these).  [get]
   sums the cells over every domain, and is exact once writers are
   quiet. *)

type t = { name : string; help : string; slot : int }

let make ~name ~help = { name; help; slot = Cells.alloc ~sum:1 ~max:0 }

let incr t = Cells.add t.slot 1

let add t n = Cells.add t.slot n

let get t = Cells.read t.slot

let reset t = Cells.reset t.slot 1

let name t = t.name

let help t = t.help
