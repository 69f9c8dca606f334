(* Domain-local int cells: the one store behind [Counter], [Histogram]
   and [Reqtrace]'s per-request attribution slots.

   A metric reserves a contiguous range of slot indices once, at
   creation.  Every domain that records gets its own [int array] (through
   a DLS key) and writes only that array, with plain loads and stores:
   no atomic, no shared cache line.  A reading sums a slot over the
   arrays of running domains plus [base], the cells of domains that have
   exited; a [Max] slot takes the maximum instead.  Readings race with
   writers on other domains and are exact once the writers are quiet
   (joined, or idle).

   When a domain exits, [Domain.at_exit] folds its cells into [base],
   zeroes them and puts the array on a free list, so the next domain
   reuses it: a build that runs [Pool.with_pool] many times leaves as
   many arrays as were ever alive at once, not one per domain spawned.

   Systhreads of one domain share its array.  An update is a load of the
   array field and a read-modify-write with no allocation or call in
   between, so no thread switch can split it; an array is only replaced
   (grown) by its own domain, after copying every slot. *)

type kind =
  | Sum
  | Max

type arr = { mutable cells : int array }

let mu = Mutex.create ()

(* the fields below are guarded by [mu] *)

let n_slots = ref 0

let kinds : kind array ref = ref [||] (* per slot, length >= !n_slots *)

let base : int array ref = ref [||] (* cells of exited domains *)

let live : arr list ref = ref [] (* arrays of running domains *)

let free : arr list ref = ref [] (* zeroed arrays of exited domains *)

let made = ref 0 (* arrays ever allocated *)

let with_lock f = Mutex.protect mu f

let grown a n = if Array.length a >= n then a else Array.append a (Array.make (n - Array.length a) 0)

(* Reserve [sum] summed slots followed by [max] maximum slots; returns
   the first index. *)
let alloc ~sum ~max =
  with_lock (fun () ->
      let first = !n_slots in
      let n = sum + max in
      n_slots := first + n;
      if Array.length !kinds < !n_slots then begin
        let k = Array.make (2 * !n_slots) Sum in
        Array.blit !kinds 0 k 0 first;
        kinds := k
      end;
      for i = first + sum to first + n - 1 do
        !kinds.(i) <- Max
      done;
      first)

let retire r =
  with_lock (fun () ->
      let a = r.cells in
      base := grown !base (Array.length a);
      let b = !base in
      for i = 0 to Stdlib.min (Array.length a) !n_slots - 1 do
        match !kinds.(i) with
        | Sum -> b.(i) <- b.(i) + a.(i)
        | Max -> if a.(i) > b.(i) then b.(i) <- a.(i)
      done;
      Array.fill a 0 (Array.length a) 0;
      live := List.filter (fun x -> x != r) !live;
      free := r :: !free)

let acquire () =
  let r =
    with_lock (fun () ->
        let r =
          match !free with
          | r :: rest ->
            free := rest;
            r
          | [] ->
            incr made;
            { cells = Array.make (Stdlib.max 64 !n_slots) 0 }
        in
        live := r :: !live;
        r)
  in
  (* [at_exit] sets a DLS key created before [key], so it cannot grow
     the DLS array that [Domain.DLS.get key] is about to store into *)
  Domain.at_exit (fun () -> retire r);
  r

let key = Domain.DLS.new_key acquire

(* The calling domain's array, long enough to hold slot [last]. *)
let local last =
  let r = Domain.DLS.get key in
  let a = r.cells in
  if last < Array.length a then a
  else begin
    let n = with_lock (fun () -> Stdlib.max (2 * Array.length a) !n_slots) in
    let b = Array.make (Stdlib.max n (last + 1)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    r.cells <- b;
    b
  end

let add slot n =
  let a = local slot in
  Array.unsafe_set a slot (Array.unsafe_get a slot + n)

let cell a i = if i < Array.length a then a.(i) else 0

(* {1 Readings} *)

let read_unlocked slot =
  let fold =
    match !kinds.(slot) with
    | Sum -> fun acc r -> acc + cell r.cells slot
    | Max -> fun acc r -> Stdlib.max acc (cell r.cells slot)
  in
  List.fold_left fold (cell !base slot) !live

let read slot = with_lock (fun () -> read_unlocked slot)

(* [read] of each slot in [first, first + n), under one lock *)
let read_range first n = with_lock (fun () -> Array.init n (fun i -> read_unlocked (first + i)))

let zero_range a first n =
  let stop = Stdlib.min (Array.length a) (first + n) in
  if stop > first then Array.fill a first (stop - first) 0

(* Zero [n] slots from [first] in every domain's array and in [base]. *)
let reset first n =
  with_lock (fun () ->
      zero_range !base first n;
      List.iter (fun r -> zero_range r.cells first n) !live)

let reset_all () = reset 0 max_int

(* Arrays ever allocated: those of running domains plus the free list. *)
let arrays () = with_lock (fun () -> !made)
