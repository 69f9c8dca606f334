(* A gauge: an instantaneous integer level that can move in both
   directions (resident pages, live partitions, queue depth).  A level
   is set, not summed, so it stays one shared atomic rather than
   [Counter]'s domain-local cells: lock-free and allocation-free. *)

type t = { name : string; help : string; value : int Atomic.t }

let make ~name ~help = { name; help; value = Atomic.make 0 }

let set t v = Atomic.set t.value v

let add t n = ignore (Atomic.fetch_and_add t.value n)

let sub t n = ignore (Atomic.fetch_and_add t.value (-n))

let incr t = add t 1

let decr t = sub t 1

let get t = Atomic.get t.value

let reset t = Atomic.set t.value 0

let name t = t.name

let help t = t.help
