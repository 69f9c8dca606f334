(* Tests for hopi_util: Int_set, Int_hashset, Lru, Crc32, Dyn_array,
   Radix_sort, Heap, Splitmix, Stats. *)

open Hopi_util

let check_list = Alcotest.(check (list int))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* {1 Int_set} *)

let test_int_set_of_list () =
  check_list "sorted dedup" [ 1; 2; 3 ] Int_set.(to_list (of_list [ 3; 1; 2; 3; 1 ]));
  check_list "empty" [] Int_set.(to_list (of_list []))

let test_int_set_mem () =
  let s = Int_set.of_list [ 2; 4; 6; 8; 10 ] in
  List.iter (fun x -> check_bool (string_of_int x) true (Int_set.mem x s)) [ 2; 4; 6; 8; 10 ];
  List.iter (fun x -> check_bool (string_of_int x) false (Int_set.mem x s)) [ 1; 3; 5; 7; 9; 11; 0; -1 ]

(* qcheck properties for Int_set *)

let int_list = QCheck2.Gen.(list_size (int_bound 40) (int_bound 100))

let prop_mem_matches_list =
  QCheck2.Test.make ~name:"Int_set.mem = List.mem" ~count:200
    QCheck2.Gen.(pair int_list (int_bound 100))
    (fun (xs, x) -> Int_set.mem x (Int_set.of_list xs) = List.mem x xs)

(* {1 Int_hashset} *)

let test_hashset_basic () =
  let h = Int_hashset.create () in
  check_bool "empty" true (Int_hashset.is_empty h);
  Int_hashset.add h 5;
  Int_hashset.add h 5;
  Int_hashset.add h 7;
  check_int "cardinal dedups" 2 (Int_hashset.cardinal h);
  check_bool "mem" true (Int_hashset.mem h 5);
  Int_hashset.remove h 5;
  check_bool "removed" false (Int_hashset.mem h 5);
  check_list "to_list" [ 7 ] (Int_hashset.to_list h)

let test_hashset_roundtrip () =
  let xs = [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
  let h = Int_hashset.create () in
  List.iter (Int_hashset.add h) xs;
  check_list "roundtrip" (List.sort_uniq compare xs)
    (List.sort compare (Int_hashset.to_list h))

let test_hashset_growth_and_removal () =
  let h = Int_hashset.create ~initial:0 () in
  for i = 0 to 9_999 do
    Int_hashset.add h (i * 7919)
  done;
  check_int "cardinal after growth" 10_000 (Int_hashset.cardinal h);
  for i = 0 to 9_999 do
    if i land 1 = 0 then Int_hashset.remove h (i * 7919)
  done;
  check_int "cardinal after removal" 5_000 (Int_hashset.cardinal h);
  for i = 0 to 9_999 do
    check_bool "mem" (i land 1 = 1) (Int_hashset.mem h (i * 7919))
  done

(* Model-based check against [Set.Make (Int)]: random operation sequences
   over keys from a small range (so probe runs collide, wrap round the
   table and are broken up by removals), plus the extreme ints — [min_int]
   is the free-slot marker internally. *)
module Model = Set.Make (Int)

type hs_op =
  | Add of int
  | Remove of int
  | Mem of int
  | Cardinal
  | Iter
  | Fold
  | To_list
  | Clear
  | Copy
  | Drain_other of int
      (** remove every element [x] with [x mod m = 0] from the set while
          iterating a copy of it *)

let show_op = function
  | Add x -> Printf.sprintf "add %d" x
  | Remove x -> Printf.sprintf "remove %d" x
  | Mem x -> Printf.sprintf "mem %d" x
  | Cardinal -> "cardinal"
  | Iter -> "iter"
  | Fold -> "fold"
  | To_list -> "to_list"
  | Clear -> "clear"
  | Copy -> "copy"
  | Drain_other m -> Printf.sprintf "drain_other %d" m

let hs_ops_gen =
  let open QCheck2.Gen in
  let key =
    frequency
      [
        (12, int_range (-6) 40);
        (1, oneofl [ min_int; max_int; 0; -1; min_int + 1; max_int - 1 ]);
        (1, map (fun k -> k lsl 40) (int_range (-4) 4));
      ]
  in
  let op =
    frequency
      [
        (10, map (fun x -> Add x) key);
        (6, map (fun x -> Remove x) key);
        (4, map (fun x -> Mem x) key);
        (1, pure Cardinal);
        (1, pure Iter);
        (1, pure Fold);
        (1, pure To_list);
        (1, pure Clear);
        (1, pure Copy);
        (1, map (fun m -> Drain_other m) (int_range 1 4));
      ]
  in
  list_size (int_bound 300) op

let hs_elements h = List.sort Int.compare (Int_hashset.to_list h)

let prop_hashset_model =
  QCheck2.Test.make ~name:"Int_hashset = Set.Make(Int) under random ops" ~count:300
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    hs_ops_gen
    (fun ops ->
      let h = ref (Int_hashset.create ~initial:1 ()) in
      let m = ref Model.empty in
      (* sets replaced by [Copy], each with the contents it must keep *)
      let retired = ref [] in
      let same () = hs_elements !h = Model.elements !m in
      let step op =
        match op with
        | Add x ->
          Int_hashset.add !h x;
          m := Model.add x !m;
          same ()
        | Remove x ->
          Int_hashset.remove !h x;
          m := Model.remove x !m;
          same ()
        | Mem x -> Int_hashset.mem !h x = Model.mem x !m
        | Cardinal ->
          Int_hashset.cardinal !h = Model.cardinal !m
          && Int_hashset.is_empty !h = Model.is_empty !m
        | Iter ->
          let seen = ref [] in
          Int_hashset.iter (fun x -> seen := x :: !seen) !h;
          List.sort Int.compare !seen = Model.elements !m
        | Fold ->
          List.sort Int.compare (Int_hashset.fold List.cons !h [])
          = Model.elements !m
        | To_list -> List.sort Int.compare (Int_hashset.to_list !h) = Model.elements !m
        | Clear ->
          Int_hashset.clear !h;
          m := Model.empty;
          same () && Int_hashset.is_empty !h
        | Copy ->
          retired := (!h, Model.elements !m) :: !retired;
          h := Int_hashset.copy !h;
          same ()
        | Drain_other k ->
          let before = Model.elements !m in
          let snapshot = Int_hashset.copy !h in
          Int_hashset.iter (fun x -> if x mod k = 0 then Int_hashset.remove !h x) snapshot;
          m := Model.filter (fun x -> x mod k <> 0) !m;
          same () && hs_elements snapshot = before
      in
      List.for_all step ops
      && List.for_all (fun (old, elems) -> hs_elements old = elems) !retired)

(* {1 Crc32} *)

(* bit-at-a-time reference: the definition the table-driven code must
   agree with *)
let crc_reference buf ~pos ~len =
  let c = ref 0xFFFF_FFFF in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code (Bytes.get buf i);
    for _ = 1 to 8 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  Int32.of_int (!c lxor 0xFFFF_FFFF)

let check_crc = Alcotest.(check int32)

let test_crc32_known_answers () =
  let b = Bytes.of_string "123456789" in
  check_crc "check value" 0xCBF43926l (Crc32.digest b ~pos:0 ~len:9);
  check_crc "empty" 0l (Crc32.digest Bytes.empty ~pos:0 ~len:0);
  let patterned = Bytes.init 4096 (fun i -> Char.chr (((i * 131) + 7) land 0xFF)) in
  check_crc "patterned page payload" 0xD5F9D7A9l (Crc32.digest patterned ~pos:8 ~len:4088);
  check_crc "zero page payload" 0xA4B68F86l
    (Crc32.digest (Bytes.make 4096 '\000') ~pos:8 ~len:4088)

let test_crc32_tails () =
  let buf = Bytes.init 64 (fun i -> Char.chr (((i * 37) + 11) land 0xFF)) in
  List.iter
    (fun pos ->
      for len = 0 to 17 do
        check_crc
          (Printf.sprintf "reference pos %d len %d" pos len)
          (crc_reference buf ~pos ~len) (Crc32.digest buf ~pos ~len)
      done)
    [ 1; 3; 5; 7 ];
  let rng = Splitmix.create 7 in
  for _ = 1 to 200 do
    let len = Splitmix.int rng 300 and pos = Splitmix.int rng 9 in
    let b = Bytes.init (pos + len) (fun _ -> Char.chr (Splitmix.int rng 256)) in
    check_crc "random range" (crc_reference b ~pos ~len) (Crc32.digest b ~pos ~len)
  done

(* the slicing kernel against the bit-at-a-time definition: every start
   within a 16-byte step and every length up to four steps, so each tail
   length meets each alignment *)
let test_crc32_every_offset () =
  let rng = Splitmix.create 11 in
  let buf = Bytes.init 96 (fun _ -> Char.chr (Splitmix.int rng 256)) in
  for pos = 0 to 15 do
    for len = 0 to 64 do
      check_crc
        (Printf.sprintf "pos %d len %d" pos len)
        (crc_reference buf ~pos ~len) (Crc32.digest buf ~pos ~len)
    done
  done

(* the page payload as the pager checks it: 4,088 bytes from offset 8,
   which is not 16-aligned *)
let test_crc32_page_payload () =
  let rng = Splitmix.create 12 in
  for _ = 1 to 4 do
    let page = Bytes.init 4096 (fun _ -> Char.chr (Splitmix.int rng 256)) in
    check_crc "random page payload" (crc_reference page ~pos:8 ~len:4088)
      (Crc32.digest page ~pos:8 ~len:4088)
  done

(* [update] composes: the digest of a buffer is [update] of the digest of
   any prefix over the rest, at every split from 0 to 40 *)
let test_crc32_update_composes () =
  let rng = Splitmix.create 13 in
  List.iter
    (fun n ->
      let b = Bytes.init n (fun _ -> Char.chr (Splitmix.int rng 256)) in
      let whole = Crc32.digest b ~pos:0 ~len:n in
      for k = 0 to min 40 n do
        let head = Crc32.digest b ~pos:0 ~len:k in
        check_crc
          (Printf.sprintf "length %d split at %d" n k)
          whole
          (Crc32.update head b ~pos:k ~len:(n - k))
      done)
    [ 40; 57; 200 ]

let test_crc32_bounds () =
  let b = Bytes.make 16 'x' in
  let rejects name f =
    match f () with
    | _ -> Alcotest.failf "%s: out-of-range call was accepted" name
    | exception Invalid_argument _ -> ()
  in
  rejects "negative pos" (fun () -> Crc32.digest b ~pos:(-1) ~len:4);
  rejects "negative len" (fun () -> Crc32.digest b ~pos:0 ~len:(-1));
  rejects "past the end" (fun () -> Crc32.digest b ~pos:10 ~len:7);
  rejects "pos past the end" (fun () -> Crc32.digest b ~pos:17 ~len:0);
  rejects "overflowing len" (fun () -> Crc32.digest b ~pos:8 ~len:max_int);
  check_crc "empty range at the end" (Crc32.digest Bytes.empty ~pos:0 ~len:0)
    (Crc32.digest b ~pos:16 ~len:0)

let test_crc32_page_flips () =
  let module Page = Hopi_storage.Page in
  let p = Page.create () in
  for i = Page.payload_off to Page.size - 1 do
    Bytes.set_uint8 p i (((i * 131) + 7) land 0xFF)
  done;
  Page.stamp p;
  check_bool "stamped page verifies" true (Page.verify p = `Ok);
  for off = Page.payload_off to Page.payload_off + 15 do
    List.iter
      (fun bits ->
        let orig = Bytes.get_uint8 p off in
        Bytes.set_uint8 p off (orig lxor bits);
        check_bool (Printf.sprintf "flip 0x%02x at %d detected" bits off) true
          (Page.verify p = `Corrupt);
        Bytes.set_uint8 p off orig)
      [ 0x01; 0x80; 0xFF ]
  done;
  check_bool "restored page verifies" true (Page.verify p = `Ok)

(* {1 Dyn_array} *)

let test_dyn_array () =
  let d = Dyn_array.create () in
  for i = 0 to 99 do
    Dyn_array.push d (i * i)
  done;
  check_int "length" 100 (Dyn_array.length d);
  check_int "get" 81 (Dyn_array.get d 9);
  Dyn_array.set d 9 (-1);
  check_int "set" (-1) (Dyn_array.get d 9);
  check_int "pop" 9801 (Dyn_array.pop d);
  check_int "after pop" 99 (Dyn_array.length d);
  Alcotest.check_raises "oob" (Invalid_argument "Dyn_array: index 99 out of [0,99)")
    (fun () -> ignore (Dyn_array.get d 99))

(* {1 Radix_sort} *)

(* prefixes on both sides of the 8-bit digit path's [2^16]-entry bound and
   tiny ones, drawn from a few distinct values each (down to one) below a
   random power of two up to [max_int], so that most entries repeat and the
   pass count varies; some inputs arrive sorted, a tail of negative entries
   past the prefix must be ignored, and the work space is fresh, passed in,
   or passed in too short *)
let prop_sort_uniq_prefix =
  QCheck2.Test.make ~name:"sort_uniq_prefix = List.sort_uniq" ~count:40
    QCheck2.Gen.(
      tup4
        (oneof [ int_bound 40; int_range 65_480 65_600; int_range 70_000 100_000 ])
        (int_range 1 3_000) bool (int_bound 1_000_000))
    (fun (len, n_distinct, presorted, seed) ->
      let rng = Splitmix.create seed in
      let bits = 1 + Splitmix.int rng 62 in
      let bound = if bits = 62 then max_int else 1 lsl bits in
      let pool = Array.init n_distinct (fun _ -> Splitmix.int rng bound) in
      let tail = Splitmix.int rng 3 in
      let a = Array.init (len + tail) (fun i -> if i < len then Splitmix.pick rng pool else -1) in
      if presorted then begin
        let s = Array.sub a 0 len in
        Array.sort compare s;
        Array.blit s 0 a 0 len
      end;
      let want = List.sort_uniq compare (Array.to_list (Array.sub a 0 len)) in
      let k =
        match Splitmix.int rng 3 with
        | 0 -> Radix_sort.sort_uniq_prefix a len
        | 1 -> Radix_sort.sort_uniq_prefix ~scratch:(Array.make (len + tail) 7) a len
        | _ -> Radix_sort.sort_uniq_prefix ~scratch:(Array.make (len / 2) 7) a len
      in
      Array.to_list (Array.sub a 0 k) = want)

(* [from_bit]: entries drawn as (high, low) pairs, the lows of each high
   value ascending in the order they are laid out, the highs interleaved
   at random; a stable sort on the high part alone sorts them *)
let prop_sort_from_bit =
  QCheck2.Test.make ~name:"sort_uniq_prefix ~from_bit = List.sort_uniq on ordered groups" ~count:40
    QCheck2.Gen.(triple (int_range 0 3_000) (int_range 1 40) (int_bound 1_000_000))
    (fun (len, n_high, seed) ->
      let rng = Splitmix.create seed in
      (* lows stay below [len] <= 3,000 < 2^12 *)
      let from_bit = 12 + Splitmix.int rng 30 in
      let next_low = Array.make n_high 0 in
      let a =
        Array.init len (fun _ ->
            let h = Splitmix.int rng n_high in
            (* repeats of the previous low now and then *)
            let low = next_low.(h) + Splitmix.int rng 2 in
            next_low.(h) <- low;
            (h lsl from_bit) lor low)
      in
      let want = List.sort_uniq compare (Array.to_list a) in
      let k = Radix_sort.sort_uniq_prefix ~from_bit a len in
      Array.to_list (Array.sub a 0 k) = want)

(* {1 Heap} *)

let test_heap_order () =
  let h = Heap.create () in
  List.iteri (fun rank (p, x) -> Heap.push h ~prio:p ~rank x)
    [ (1.0, "a"); (5.0, "b"); (3.0, "c"); (4.0, "d"); (2.0, "e"); (3.0, "f"); (3.0, "g") ];
  let order = ref [] in
  let rec drain () =
    match Heap.pop_max h with
    | Some (_, x) ->
      order := x :: !order;
      drain ()
    | None -> ()
  in
  drain ();
  (* equal priorities pop lowest rank first *)
  Alcotest.(check (list string)) "max first" [ "b"; "d"; "c"; "f"; "g"; "e"; "a" ]
    (List.rev !order)

let prop_heap_sorts =
  QCheck2.Test.make ~name:"Heap pops in decreasing priority" ~count:200
    QCheck2.Gen.(list_size (int_bound 50) (float_bound_inclusive 100.0))
    (fun ps ->
      let h = Heap.create () in
      List.iteri (fun rank p -> Heap.push h ~prio:p ~rank ()) ps;
      let rec drain acc =
        match Heap.pop_max h with
        | Some (p, ()) -> drain (p :: acc)
        | None -> acc
      in
      let popped = drain [] in
      (* popped is reversed: increasing *)
      popped = List.sort compare popped)

(* {1 Splitmix} *)

let test_splitmix_deterministic () =
  let a = Splitmix.create 7 and b = Splitmix.create 7 in
  for _ = 1 to 100 do
    check_int "same stream" (Splitmix.int a max_int) (Splitmix.int b max_int)
  done

let test_splitmix_bounds () =
  let rng = Splitmix.create 1 in
  for _ = 1 to 1000 do
    let x = Splitmix.int rng 10 in
    check_bool "in range" true (x >= 0 && x < 10);
    let f = Splitmix.float rng 2.5 in
    check_bool "float range" true (f >= 0.0 && f < 2.5)
  done

let test_splitmix_shuffle_permutes () =
  let rng = Splitmix.create 3 in
  let a = Array.init 50 Fun.id in
  Splitmix.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check_list "permutation" (List.init 50 Fun.id) (Array.to_list sorted)

(* {1 Union_find} *)

let test_union_find () =
  let uf = Union_find.create () in
  check_bool "singleton" true (Union_find.find uf 1 = 1);
  Union_find.union uf 1 2;
  Union_find.union uf 3 4;
  let same a b = Union_find.find uf a = Union_find.find uf b in
  check_bool "1~2" true (same 1 2);
  check_bool "3~4" true (same 3 4);
  check_bool "1!~3" false (same 1 3);
  Union_find.union uf 2 3;
  check_bool "transitive" true (same 1 4);
  let classes = Union_find.classes uf in
  check_int "one class" 1 (Hashtbl.length classes);
  Hashtbl.iter (fun _ members -> check_int "four members" 4 (List.length members)) classes

let prop_union_find_is_partition =
  QCheck2.Test.make ~name:"Union_find classes partition the keys" ~count:100
    QCheck2.Gen.(list_size (int_bound 50) (pair (int_bound 20) (int_bound 20)))
    (fun pairs ->
      let uf = Union_find.create () in
      List.iter (fun (a, b) -> Union_find.union uf a b) pairs;
      let classes = Union_find.classes uf in
      let seen = Hashtbl.create 16 in
      let ok = ref true in
      Hashtbl.iter
        (fun repr members ->
          List.iter
            (fun m ->
              if Hashtbl.mem seen m then ok := false;
              Hashtbl.replace seen m ();
              if Union_find.find uf m <> Union_find.find uf repr then ok := false)
            members)
        classes;
      !ok)

(* {1 Stats} *)

let check_float = Alcotest.(check (float 1e-9))

let test_stats_mean () =
  check_float "mean" 3.0 (Stats.mean [| 1.0; 2.0; 3.0; 4.0; 5.0 |]);
  check_float "mean of nothing" 0.0 (Stats.mean [||])

let test_stats_percentile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0 |] in
  check_float "p0" 10.0 (Stats.percentile xs 0.0);
  check_float "p100" 40.0 (Stats.percentile xs 100.0);
  check_float "p50" 25.0 (Stats.percentile xs 50.0)

let test_stats_min_max () =
  let lo, hi = Stats.min_max [| 3.0; -1.0; 2.5; -1.5; 0.0 |] in
  check_float "min" (-1.5) lo;
  check_float "max" 3.0 hi

let test_stats_summary () =
  let s = Stats.summary [| 40.0; 10.0; 30.0; 20.0 |] in
  Alcotest.(check int) "n" 4 s.Stats.n;
  check_float "mean" 25.0 s.Stats.mean;
  check_float "p50" 25.0 s.Stats.p50;
  check_float "p95" 38.5 s.Stats.p95;
  check_float "max" 40.0 s.Stats.max;
  Alcotest.(check int) "empty n" 0 (Stats.summary [||]).Stats.n;
  check_float "empty mean" 0.0 (Stats.summary [||]).Stats.mean

let test_stats_ci_upper () =
  (* 0 successes -> upper bound still >= 0, p=1 with no samples *)
  check_float "no samples" 1.0 (Stats.proportion_ci_upper ~successes:0 ~samples:0 ~z:2.0);
  let u = Stats.proportion_ci_upper ~successes:50 ~samples:100 ~z:Stats.z_98 in
  check_bool "upper > p" true (u > 0.5);
  check_bool "clamped" true (u <= 1.0);
  check_float "all hits" 1.0 (Stats.proportion_ci_upper ~successes:100 ~samples:100 ~z:2.0)

(* {1 Pool} *)

exception Boom of int

let test_pool_map_matches_sequential () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let expected = Array.init 500 (fun i -> i * i) in
      check_bool "jobs" true (Pool.jobs pool = 4);
      Alcotest.(check (array int)) "map"
        expected
        (Pool.parallel_map pool 500 (fun i -> i * i));
      Alcotest.(check (array int)) "map chunk=7"
        expected
        (Pool.parallel_map pool ~chunk:7 500 (fun i -> i * i));
      Alcotest.(check (array int)) "map_array"
        expected
        (Pool.map_array pool (fun i -> i * i) (Array.init 500 Fun.id));
      Alcotest.(check (array int)) "empty" [||] (Pool.parallel_map pool 0 (fun i -> i)))

let test_pool_sequential_fallback () =
  Pool.with_pool ~jobs:1 (fun pool ->
      check_int "clamped" 1 (Pool.jobs pool);
      check_int "map" 42 (Pool.parallel_map pool 10 (fun i -> i + 33)).(9));
  Pool.with_pool ~jobs:0 (fun pool -> check_int "jobs 0 clamps" 1 (Pool.jobs pool))

let test_pool_iter_each_once () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let n = 1000 in
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      ignore (Pool.parallel_map pool ~chunk:13 n (fun i -> Atomic.incr hits.(i)));
      check_bool "each index exactly once" true
        (Array.for_all (fun a -> Atomic.get a = 1) hits))

let test_pool_exception_propagates () =
  Pool.with_pool ~jobs:4 (fun pool ->
      (match Pool.parallel_map pool 100 (fun i -> if i = 57 then raise (Boom i) else i) with
       | _ -> Alcotest.fail "expected Boom"
       | exception Boom 57 -> ());
      (* the pool survives a failed submission *)
      check_int "usable after failure" 99 (Pool.parallel_map pool 100 Fun.id).(99))

let test_pool_nested_submission () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let inner_total =
        Pool.parallel_map pool 8 (fun i ->
            (* nested submission must run sequentially, not deadlock *)
            Array.fold_left ( + ) 0 (Pool.parallel_map pool 10 (fun j -> (i * 10) + j)))
      in
      check_int "nested sums" ((80 * 79) / 2) (Array.fold_left ( + ) 0 inner_total))

let test_pool_reuse_across_submissions () =
  Pool.with_pool ~jobs:4 (fun pool ->
      for round = 1 to 50 do
        let r = Pool.parallel_map pool 20 (fun i -> i * round) in
        check_int (Printf.sprintf "round %d" round) (19 * round) r.(19)
      done)

(* {1 Timer.Acc} *)

let test_timer_acc () =
  let acc = Timer.Acc.create () in
  let check_s msg want = Alcotest.(check (float 1e-15)) msg want (Timer.Acc.total_s acc) in
  check_s "starts at zero" 0.0;
  Timer.Acc.add_ns acc 500L;
  Timer.Acc.add_ns acc 1500L;
  check_s "total_s" 2e-6;
  Timer.Acc.add_ns acc (-7L);
  check_s "negative clamps" 2e-6;
  let x = Timer.Acc.timed acc (fun () -> 7) in
  check_int "timed passthrough" 7 x;
  check_bool "timed accumulates" true (Timer.Acc.total_s acc >= 2e-6)

(* {1 Lru} *)

(* the delta of a mutation that changed nothing *)
let no_change = { Lru.entries = 0; cost = 0; evicted = 0 }

(* Model-based check of a one-shard [Lru] against a reference LRU: an
   association list in recency order (most recent first).  Values are
   (cost, serial) pairs, so a value returned for the wrong add shows up,
   and costs run past the capacity so some adds must be refused. *)
module Lru_model = struct
  type op =
    | Find of int
    | Peek of int
    | Add of int * int
    | Remove of int
    | Remove_if of int  (** drop keys [k] with [k mod 3 = r] *)

  let show = function
    | Find k -> Printf.sprintf "find %d" k
    | Peek k -> Printf.sprintf "peek %d" k
    | Add (k, c) -> Printf.sprintf "add %d (cost %d)" k c
    | Remove k -> Printf.sprintf "remove %d" k
    | Remove_if r -> Printf.sprintf "remove_if (k mod 3 = %d)" r

  let keys = 8

  let gen =
    let open QCheck2.Gen in
    int_range 1 12 >>= fun capacity ->
    let key = int_bound (keys - 1) in
    let op =
      frequency
        [
          (6, map (fun k -> Find k) key);
          (2, map (fun k -> Peek k) key);
          (8, map2 (fun k c -> Add (k, c)) key (int_range 1 (capacity + 2)));
          (2, map (fun k -> Remove k) key);
          (1, map (fun r -> Remove_if r) (int_bound 2));
        ]
    in
    pair (pure capacity) (list_size (int_bound 200) op)

  type t = {
    capacity : int;
    mutable order : (int * (int * int)) list;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let used m = List.fold_left (fun acc (_, (c, _)) -> acc + c) 0 m.order

  let delta entries cost evicted = { Lru.entries; cost; evicted }

  (* drop every binding matching [p], reporting the delta *)
  let drop m p =
    let gone, kept = List.partition (fun (k, _) -> p k) m.order in
    m.order <- kept;
    delta (-List.length gone) (-List.fold_left (fun acc (_, (c, _)) -> acc + c) 0 gone) 0

  let rec evict m evicted freed =
    if used m <= m.capacity then (evicted, freed)
    else begin
      let rev = List.rev m.order in
      let _, (c, _) = List.hd rev in
      m.order <- List.rev (List.tl rev);
      evict m (evicted + 1) (freed + c)
    end

  let add m k ((c, _) as v) =
    if c > m.capacity then no_change
    else begin
      let replaced = drop m (Int.equal k) in
      m.order <- (k, v) :: m.order;
      let evicted, freed = evict m 0 0 in
      m.evictions <- m.evictions + evicted;
      delta (1 + replaced.entries - evicted) (c + replaced.cost - freed) evicted
    end

  let find m k =
    match List.assoc_opt k m.order with
    | Some v ->
      m.hits <- m.hits + 1;
      m.order <- (k, v) :: List.remove_assoc k m.order;
      Some v
    | None ->
      m.misses <- m.misses + 1;
      None
end

let prop_lru_model =
  QCheck2.Test.make ~name:"one-shard Lru = reference LRU under random ops" ~count:300
    ~print:(fun (cap, ops) ->
      Printf.sprintf "capacity %d: %s" cap (String.concat "; " (List.map Lru_model.show ops)))
    Lru_model.gen
    (fun (capacity, ops) ->
      let lru = Lru.create ~shards:1 ~capacity ~cost:fst () in
      let m = { Lru_model.capacity; order = []; hits = 0; misses = 0; evictions = 0 } in
      let serial = ref 0 in
      let step op =
        let agree =
          match op with
          | Lru_model.Find k -> Lru.find lru k = Lru_model.find m k
          | Peek k -> Lru.peek lru k = List.assoc_opt k m.order
          | Add (k, c) ->
            incr serial;
            let v = (c, !serial) in
            Lru.add lru k v = Lru_model.add m k v
          | Remove k -> Lru.remove lru k = Lru_model.drop m (Int.equal k)
          | Remove_if r ->
            let p k = k mod 3 = r in
            Lru.remove_if lru p = Lru_model.drop m p
        in
        (* every resident key and value, read without promotion: after each
           add this pins down which entries the eviction picked *)
        let resident =
          List.for_all
            (fun k -> Lru.peek lru k = List.assoc_opt k m.order)
            (List.init Lru_model.keys Fun.id)
        in
        let st = Lru.stats lru in
        if not (agree && resident) then
          QCheck2.Test.fail_reportf "diverged at %s" (Lru_model.show op);
        st = { Lru.capacity; cost = Lru_model.used m; entries = List.length m.order;
               hits = m.hits; misses = m.misses; evictions = m.evictions }
        && st.cost <= st.capacity
      in
      List.for_all step ops)

let test_lru_disabled () =
  let lru = Lru.create ~capacity:0 ~cost:(fun _ -> 1) () in
  check_bool "disabled" false (Lru.enabled lru);
  check_bool "add is a no-op" true (Lru.add lru 1 "x" = no_change);
  check_bool "find misses" true (Lru.find lru 1 = None);
  check_bool "peek misses" true (Lru.peek lru 1 = None);
  check_bool "remove is a no-op" true (Lru.remove lru 1 = no_change);
  check_bool "remove_if is a no-op" true (Lru.remove_if lru (fun _ -> true) = no_change);
  check_bool "nothing counted" true
    (Lru.stats lru
    = { Lru.capacity = 0; cost = 0; entries = 0; hits = 0; misses = 0; evictions = 0 })

(* the slices add up to the request: the remainder goes one unit each to
   the first shards, and the one-unit floor only lifts budgets smaller
   than the shard count *)
let test_lru_capacity_split () =
  List.iter
    (fun (shards, capacity, expect) ->
      let lru = Lru.create ~shards ~capacity ~cost:(fun _ -> 1) () in
      check_int (Printf.sprintf "%d over %d shards" capacity shards) expect
        (Lru.stats lru).capacity)
    [ (16, 20, 20); (16, 100, 100); (16, 4096, 4096); (4, 7, 7); (1, 3, 3); (16, 5, 16);
      (3, 9, 9) ];
  (* every shard really holds its slice: fill far past the budget *)
  let lru = Lru.create ~shards:16 ~capacity:20 ~cost:(fun _ -> 1) () in
  for k = 0 to 9_999 do
    ignore (Lru.add lru k ())
  done;
  check_int "resident = budget" 20 (Lru.stats lru).entries

let test_lru_sharded_counts () =
  let lru = Lru.create ~shards:4 ~capacity:256 ~cost:String.length () in
  for k = 0 to 31 do
    ignore (Lru.add lru k "ab")
  done;
  for k = 0 to 39 do
    ignore (Lru.find lru k)
  done;
  let st = Lru.stats lru in
  check_int "hits" 32 st.hits;
  check_int "misses" 8 st.misses;
  check_int "entries" 32 st.entries;
  check_int "cost" 64 st.cost;
  let d = Lru.remove_if lru (fun k -> k land 1 = 0) in
  check_int "remove_if entries" (-16) d.entries;
  check_int "remove_if cost" (-32) d.cost;
  check_int "survivors" 16 (Lru.stats lru).entries

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "util.int_set",
      [
        Alcotest.test_case "of_list" `Quick test_int_set_of_list;
        Alcotest.test_case "mem" `Quick test_int_set_mem;
      ]
      @ qsuite [ prop_mem_matches_list ] );
    ( "util.int_hashset",
      [
        Alcotest.test_case "basic" `Quick test_hashset_basic;
        Alcotest.test_case "roundtrip" `Quick test_hashset_roundtrip;
        Alcotest.test_case "growth and removal" `Quick test_hashset_growth_and_removal;
      ]
      @ qsuite [ prop_hashset_model ] );
    ( "util.lru",
      [
        Alcotest.test_case "disabled" `Quick test_lru_disabled;
        Alcotest.test_case "capacity split" `Quick test_lru_capacity_split;
        Alcotest.test_case "sharded counts" `Quick test_lru_sharded_counts;
      ]
      @ qsuite [ prop_lru_model ] );
    ( "util.crc32",
      [
        Alcotest.test_case "known answers" `Quick test_crc32_known_answers;
        Alcotest.test_case "unaligned tails = reference" `Quick test_crc32_tails;
        Alcotest.test_case "every pos 0..15, len 0..64 = reference" `Quick
          test_crc32_every_offset;
        Alcotest.test_case "page payload at offset 8 = reference" `Quick test_crc32_page_payload;
        Alcotest.test_case "update composes over splits" `Quick test_crc32_update_composes;
        Alcotest.test_case "bounds check" `Quick test_crc32_bounds;
        Alcotest.test_case "page byte flips" `Quick test_crc32_page_flips;
      ] );
    ("util.dyn_array", [ Alcotest.test_case "basic" `Quick test_dyn_array ]);
    ("util.radix_sort", qsuite [ prop_sort_uniq_prefix; prop_sort_from_bit ]);
    ( "util.heap",
      Alcotest.test_case "order" `Quick test_heap_order :: qsuite [ prop_heap_sorts ] );
    ( "util.splitmix",
      [
        Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
        Alcotest.test_case "bounds" `Quick test_splitmix_bounds;
        Alcotest.test_case "shuffle" `Quick test_splitmix_shuffle_permutes;
      ] );
    ( "util.union_find",
      Alcotest.test_case "basic" `Quick test_union_find
      :: qsuite [ prop_union_find_is_partition ] );
    ( "util.stats",
      [
        Alcotest.test_case "mean" `Quick test_stats_mean;
        Alcotest.test_case "percentile" `Quick test_stats_percentile;
        Alcotest.test_case "min/max" `Quick test_stats_min_max;
        Alcotest.test_case "summary" `Quick test_stats_summary;
        Alcotest.test_case "ci upper" `Quick test_stats_ci_upper;
      ] );
    ( "util.pool",
      [
        Alcotest.test_case "map matches sequential" `Quick
          test_pool_map_matches_sequential;
        Alcotest.test_case "sequential fallback" `Quick test_pool_sequential_fallback;
        Alcotest.test_case "iter each once" `Quick test_pool_iter_each_once;
        Alcotest.test_case "exception propagates" `Quick
          test_pool_exception_propagates;
        Alcotest.test_case "nested submission" `Quick test_pool_nested_submission;
        Alcotest.test_case "reuse across submissions" `Quick
          test_pool_reuse_across_submissions;
      ] );
    ("util.timer", [ Alcotest.test_case "acc" `Quick test_timer_acc ]);
  ]
