(* Sharded exact-LRU cache (see the interface for the contract).

   A shard is a hash table from key to slot plus a circular doubly-linked
   recency list through the slots' nodes, anchored at a sentinel:
   [head.next] is the most recently used node, [head.prev] the least.
   With the sentinel no link is optional, so a splice allocates nothing.
   All shard state is guarded by the shard mutex. *)

module Tbl = Hashtbl.Make (Int)

type node = { key : int; weight : int; mutable prev : node; mutable next : node }

type 'a slot = { node : node; value : 'a }

type 'a shard = {
  mu : Mutex.t;
  tbl : 'a slot Tbl.t;
  head : node; (* sentinel, never in [tbl] *)
  slice : int;
  mutable used : int;
  mutable hits : int; mutable misses : int; mutable evictions : int;
}

type 'a t = { shards : 'a shard array; mask : int; cost_of : 'a -> int }

type delta = { entries : int; cost : int; evicted : int }

type stats = { capacity : int; cost : int; entries : int; hits : int; misses : int; evictions : int }

let no_change = { entries = 0; cost = 0; evicted = 0 }

let node key weight =
  let rec n = { key; weight; prev = n; next = n } in
  n

let rec next_pow2 n k = if k >= n then k else next_pow2 n (2 * k)

let create ?(shards = 16) ~capacity ~cost () =
  let n = if capacity <= 0 then 0 else next_pow2 (max 1 shards) 1 in
  (* the remainder goes one unit each to the first shards, so the slices
     sum to the request; the floor lets every shard hold something *)
  let slice i = max 1 ((capacity / n) + if i < capacity mod n then 1 else 0) in
  let shard i =
    { mu = Mutex.create (); tbl = Tbl.create 64; head = node min_int 0; slice = slice i;
      used = 0; hits = 0; misses = 0; evictions = 0 }
  in
  { shards = Array.init n shard; mask = n - 1; cost_of = cost }

let enabled t = Array.length t.shards > 0

(* splitmix finaliser so consecutive keys spread across shards *)
let mix k =
  let h = k lxor (k lsr 31) in
  let h = h * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

let shard_of t key = t.shards.(mix key land t.mask)

(* list surgery: the caller holds the shard mutex *)

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

let push_front s n =
  n.prev <- s.head;
  n.next <- s.head.next;
  s.head.next.prev <- n;
  s.head.next <- n

let drop s n =
  unlink n;
  Tbl.remove s.tbl n.key;
  s.used <- s.used - n.weight

(* [f] on the key's shard under its mutex; [off] when disabled *)
let locked t key ~off f =
  if not (enabled t) then off
  else begin
    let s = shard_of t key in
    Mutex.protect s.mu (fun () -> f s)
  end

let find t key =
  locked t key ~off:None (fun s ->
      match Tbl.find_opt s.tbl key with
      | Some slot ->
        s.hits <- s.hits + 1;
        unlink slot.node;
        push_front s slot.node;
        Some slot.value
      | None ->
        s.misses <- s.misses + 1;
        None)

let peek t key =
  locked t key ~off:None (fun s -> Option.map (fun slot -> slot.value) (Tbl.find_opt s.tbl key))

(* drop the entry under [key], if any *)
let take s key =
  match Tbl.find_opt s.tbl key with
  | Some slot ->
    drop s slot.node;
    { no_change with entries = -1; cost = -slot.node.weight }
  | None -> no_change

let add t key value =
  let weight = t.cost_of value in
  locked t key ~off:no_change (fun s ->
      if weight > s.slice then no_change
      else begin
        let replaced = take s key in
        let n = node key weight in
        Tbl.add s.tbl key { node = n; value };
        push_front s n;
        s.used <- s.used + weight;
        (* [n] is at the front and fits the slice alone: the loop stops
           before reaching it *)
        let evicted = ref 0 and freed = ref 0 in
        while s.used > s.slice do
          let victim = s.head.prev in
          drop s victim;
          incr evicted;
          freed := !freed + victim.weight
        done;
        s.evictions <- s.evictions + !evicted;
        { entries = replaced.entries + 1 - !evicted; cost = replaced.cost + weight - !freed;
          evicted = !evicted }
      end)

let remove t key = locked t key ~off:no_change (fun s -> take s key)

(* drop the nodes from [n] on whose key satisfies [p]; [unlink] leaves
   the dropped node's own links intact, so the walk goes on from it *)
let rec sweep s p (acc : delta) n =
  if n == s.head then acc
  else if not (p n.key) then sweep s p acc n.next
  else begin
    drop s n;
    sweep s p { acc with entries = acc.entries - 1; cost = acc.cost - n.weight } n.next
  end

let remove_if t p =
  Array.fold_left
    (fun acc s -> Mutex.protect s.mu (fun () -> sweep s p acc s.head.next))
    no_change t.shards

let stats t =
  Array.fold_left
    (fun (a : stats) s ->
      Mutex.protect s.mu (fun () ->
          { capacity = a.capacity + s.slice; cost = a.cost + s.used;
            entries = a.entries + Tbl.length s.tbl; hits = a.hits + s.hits;
            misses = a.misses + s.misses; evictions = a.evictions + s.evictions }))
    { capacity = 0; cost = 0; entries = 0; hits = 0; misses = 0; evictions = 0 }
    t.shards
