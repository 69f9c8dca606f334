(* Observability library: metric semantics, bucket boundaries, span trees,
   exporter output, and multi-domain safety. *)

module Counter = Hopi_obs.Counter
module Gauge = Hopi_obs.Gauge
module Histogram = Hopi_obs.Histogram
module Registry = Hopi_obs.Registry
module Trace = Hopi_obs.Trace
module Export = Hopi_obs.Export

(* {1 A minimal JSON validator} — enough to assert the hand-rolled emitter
   produces well-formed JSON without a JSON library in the toolchain. *)

exception Bad_json of string

let validate_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal lit =
    String.iter expect lit
  in
  let string_ () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
         | Some 'u' ->
           advance ();
           for _ = 1 to 4 do
             match peek () with
             | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
             | _ -> fail "bad \\u escape"
           done
         | _ -> fail "bad escape");
        go ()
      | Some _ ->
        advance ();
        go ()
    in
    go ()
  in
  let number () =
    (match peek () with Some '-' -> advance () | _ -> ());
    let digits () =
      let saw = ref false in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
          saw := true;
          advance ();
          go ()
        | _ -> ()
      in
      go ();
      if not !saw then fail "expected digit"
    in
    digits ();
    (match peek () with
     | Some '.' ->
       advance ();
       digits ()
     | _ -> ());
    match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ()
  in
  let rec value () =
    skip_ws ();
    (match peek () with
     | Some '{' ->
       advance ();
       skip_ws ();
       if peek () = Some '}' then advance ()
       else begin
         let rec members () =
           skip_ws ();
           string_ ();
           skip_ws ();
           expect ':';
           value ();
           skip_ws ();
           match peek () with
           | Some ',' ->
             advance ();
             members ()
           | Some '}' -> advance ()
           | _ -> fail "expected , or }"
         in
         members ()
       end
     | Some '[' ->
       advance ();
       skip_ws ();
       if peek () = Some ']' then advance ()
       else begin
         let rec elements () =
           value ();
           skip_ws ();
           match peek () with
           | Some ',' ->
             advance ();
             elements ()
           | Some ']' -> advance ()
           | _ -> fail "expected , or ]"
         in
         elements ()
       end
     | Some '"' -> string_ ()
     | Some 't' -> literal "true"
     | Some 'f' -> literal "false"
     | Some 'n' -> literal "null"
     | Some ('-' | '0' .. '9') -> number ()
     | _ -> fail "expected value");
    skip_ws ()
  in
  value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* {1 Counters and gauges} *)

let test_counter () =
  let c = Registry.counter "test_obs_counter_total" ~help:"test" in
  Counter.reset c;
  Alcotest.(check int) "initial" 0 (Counter.get c);
  Counter.incr c;
  Counter.incr c;
  Counter.add c 40;
  Alcotest.(check int) "incr+add" 42 (Counter.get c);
  (* factory is idempotent: same name gives the same metric *)
  let c' = Registry.counter "test_obs_counter_total" in
  Counter.incr c';
  Alcotest.(check int) "idempotent registration" 43 (Counter.get c);
  Counter.reset c;
  Alcotest.(check int) "reset" 0 (Counter.get c);
  Alcotest.(check string) "name" "test_obs_counter_total" (Counter.name c);
  (* re-registering under a different metric type is an error *)
  Alcotest.check_raises "type mismatch"
    (Invalid_argument
       "Hopi_obs.Registry: \"test_obs_counter_total\" already registered with another type")
    (fun () -> ignore (Registry.gauge "test_obs_counter_total"))

let test_gauge () =
  let g = Registry.gauge "test_obs_gauge" ~help:"test" in
  Gauge.reset g;
  Gauge.set g 10;
  Alcotest.(check int) "set" 10 (Gauge.get g);
  Gauge.incr g;
  Gauge.add g 5;
  Gauge.decr g;
  Gauge.sub g 3;
  Alcotest.(check int) "arithmetic" 12 (Gauge.get g)

(* {1 Histogram} *)

let test_histogram_basic () =
  let h = Registry.histogram "test_obs_hist_basic" ~help:"test" in
  Histogram.reset h;
  List.iter (Histogram.observe h) [ 1; 2; 3; 100; -5 ];
  Alcotest.(check int) "count" 5 (Histogram.count h);
  (* -5 clamps to 0 *)
  Alcotest.(check int) "sum" 106 (Histogram.sum h);
  Alcotest.(check int) "max" 100 (Histogram.max_value h);
  Histogram.reset h;
  Alcotest.(check int) "reset count" 0 (Histogram.count h);
  Alcotest.(check int) "reset max" 0 (Histogram.max_value h)

let test_histogram_buckets () =
  (* bucket i holds v with 2^(i-1) < v <= 2^i: exact powers stay in their
     own bucket, the successor of a power spills into the next *)
  Alcotest.(check int) "v=0" 0 (Histogram.bucket_of_value 0);
  Alcotest.(check int) "v=1" 0 (Histogram.bucket_of_value 1);
  Alcotest.(check int) "v=2" 1 (Histogram.bucket_of_value 2);
  Alcotest.(check int) "v=3" 2 (Histogram.bucket_of_value 3);
  Alcotest.(check int) "v=4" 2 (Histogram.bucket_of_value 4);
  Alcotest.(check int) "v=5" 3 (Histogram.bucket_of_value 5);
  for i = 1 to 61 do
    Alcotest.(check int)
      (Printf.sprintf "v=2^%d" i)
      i
      (Histogram.bucket_of_value (1 lsl i));
    if i < 61 then
      Alcotest.(check int)
        (Printf.sprintf "v=2^%d+1" i)
        (i + 1)
        (Histogram.bucket_of_value ((1 lsl i) + 1))
  done;
  Alcotest.(check int) "v=max_int clamps to last bucket"
    (Histogram.n_buckets - 1)
    (Histogram.bucket_of_value max_int);
  let h = Registry.histogram "test_obs_hist_buckets" ~help:"test" in
  Histogram.reset h;
  List.iter (Histogram.observe h) [ 1; 1; 2; 4; 5; 8; 9 ];
  let counts = Histogram.bucket_counts h in
  Alcotest.(check int) "bucket 0 (<=1)" 2 counts.(0);
  Alcotest.(check int) "bucket 1 (<=2)" 1 counts.(1);
  Alcotest.(check int) "bucket 2 (<=4)" 1 counts.(2);
  Alcotest.(check int) "bucket 3 (<=8)" 2 counts.(3);
  Alcotest.(check int) "bucket 4 (<=16)" 1 counts.(4)

let test_histogram_summary () =
  let h = Registry.histogram "test_obs_hist_summary" ~help:"test" in
  Histogram.reset h;
  for _ = 1 to 10 do
    Histogram.observe h 8
  done;
  let s = Histogram.summary h in
  Alcotest.(check int) "n" 10 s.Hopi_util.Stats.n;
  Alcotest.(check (float 1e-9)) "mean" 8.0 s.Hopi_util.Stats.mean;
  (* every percentile resolves within the only populated bucket, capped by
     the exact tracked max *)
  Alcotest.(check (float 1e-9)) "p50" 8.0 s.Hopi_util.Stats.p50;
  Alcotest.(check (float 1e-9)) "p99" 8.0 s.Hopi_util.Stats.p99;
  Alcotest.(check (float 1e-9)) "max" 8.0 s.Hopi_util.Stats.max;
  let empty = Registry.histogram "test_obs_hist_empty" ~help:"test" in
  Histogram.reset empty;
  Alcotest.(check int) "empty n" 0 (Histogram.summary empty).Hopi_util.Stats.n

(* {1 Spans} *)

let test_spans () =
  Trace.reset ();
  Trace.with_span "outer" (fun () ->
      Trace.add "outer_items" 2;
      Trace.with_span "inner" (fun () ->
          Trace.add "inner_items" 3;
          Trace.add "inner_items" 4;
          ignore (Sys.opaque_identity (String.make 1024 'x')));
      Trace.with_span "inner2" (fun () -> ()));
  match Trace.roots () with
  | [ outer ] ->
    Alcotest.(check string) "root name" "outer" outer.Trace.name;
    Alcotest.(check (list (pair string int)))
      "root counters" [ ("outer_items", 2) ] (Trace.counters outer);
    (match Trace.children outer with
     | [ inner; inner2 ] ->
       Alcotest.(check string) "child order" "inner" inner.Trace.name;
       Alcotest.(check string) "child order 2" "inner2" inner2.Trace.name;
       Alcotest.(check (list (pair string int)))
         "inner counters accumulate" [ ("inner_items", 7) ] (Trace.counters inner);
       Alcotest.(check bool) "durations nest"
         true
         (outer.Trace.duration_ns
          >= inner.Trace.duration_ns + inner2.Trace.duration_ns);
       Alcotest.(check int) "exclusive = total - children"
         (outer.Trace.duration_ns - inner.Trace.duration_ns
          - inner2.Trace.duration_ns)
         (Trace.exclusive_ns outer)
     | cs -> Alcotest.failf "expected 2 children, got %d" (List.length cs))
  | rs -> Alcotest.failf "expected 1 root, got %d" (List.length rs)

let test_span_exception () =
  Trace.reset ();
  (try Trace.with_span "boom" (fun () -> failwith "inner failure")
   with Failure _ -> ());
  match Trace.roots () with
  | [ sp ] -> Alcotest.(check string) "span completed despite raise" "boom" sp.Trace.name
  | rs -> Alcotest.failf "expected 1 root, got %d" (List.length rs)

(* {1 Exporters} *)

let test_json_export () =
  Trace.reset ();
  let c = Registry.counter "test_obs_json_total" ~help:"json test" in
  Counter.reset c;
  Counter.add c 3;
  let h = Registry.histogram "test_obs_json_hist" ~help:"json \"quoted\" help" in
  Histogram.reset h;
  List.iter (Histogram.observe h) [ 1; 2; 300 ];
  Trace.with_span "export.root" (fun () ->
      Trace.add "entries" 5;
      Trace.with_span "export.child" (fun () -> ()));
  let json = Export.to_json () in
  (match validate_json json with
   | () -> ()
   | exception Bad_json msg -> Alcotest.failf "invalid JSON (%s): %s" msg json);
  Alcotest.(check bool) "counter present" true
    (contains json {|"test_obs_json_total":{"type":"counter","value":3}|});
  Alcotest.(check bool) "histogram count present" true
    (contains json {|"count":3,"sum":303|});
  Alcotest.(check bool) "span present" true (contains json {|"name":"export.root"|});
  Alcotest.(check bool) "span counters present" true (contains json {|"entries":5|});
  Alcotest.(check bool) "child span nested" true
    (contains json {|"children":[{"name":"export.child"|})

let test_prometheus_export () =
  let c = Registry.counter "test_obs_prom_total" ~help:"prom test" in
  Counter.reset c;
  Counter.add c 7;
  let h = Registry.histogram "test_obs_prom_hist" ~help:"prom hist" in
  Histogram.reset h;
  List.iter (Histogram.observe h) [ 1; 2; 2; 5 ];
  let out = Export.prometheus () in
  Alcotest.(check bool) "TYPE counter" true
    (contains out "# TYPE test_obs_prom_total counter");
  Alcotest.(check bool) "counter sample" true (contains out "test_obs_prom_total 7");
  Alcotest.(check bool) "TYPE histogram" true
    (contains out "# TYPE test_obs_prom_hist histogram");
  (* buckets are cumulative: le=1 -> 1, le=2 -> 3, le=8 -> 4 *)
  Alcotest.(check bool) "bucket le=1" true
    (contains out {|test_obs_prom_hist_bucket{le="1"} 1|});
  Alcotest.(check bool) "bucket le=2" true
    (contains out {|test_obs_prom_hist_bucket{le="2"} 3|});
  Alcotest.(check bool) "bucket le=8" true
    (contains out {|test_obs_prom_hist_bucket{le="8"} 4|});
  Alcotest.(check bool) "bucket +Inf" true
    (contains out {|test_obs_prom_hist_bucket{le="+Inf"} 4|});
  Alcotest.(check bool) "sum" true (contains out "test_obs_prom_hist_sum 10");
  Alcotest.(check bool) "count" true (contains out "test_obs_prom_hist_count 4")

(* {1 Multi-domain stress} — recording from several domains concurrently
   must not lose increments or samples. *)

let test_multi_domain () =
  let c = Registry.counter "test_obs_stress_total" ~help:"stress" in
  let h = Registry.histogram "test_obs_stress_hist" ~help:"stress" in
  Counter.reset c;
  Histogram.reset h;
  let per_domain = 100_000 and n_domains = 4 in
  let work () =
    for i = 1 to per_domain do
      Counter.incr c;
      Histogram.observe h (i land 1023)
    done
  in
  let domains = List.init (n_domains - 1) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join domains;
  let total = n_domains * per_domain in
  Alcotest.(check int) "no lost counter increments" total (Counter.get c);
  Alcotest.(check int) "no lost histogram samples" total (Histogram.count h);
  Alcotest.(check int) "bucket counts consistent" total
    (Array.fold_left ( + ) 0 (Histogram.bucket_counts h));
  Alcotest.(check int) "max tracked" 1023 (Histogram.max_value h)

(* Counters and histograms record into domain-local cells: totals,
   sums and the maximum read back exactly once the writers have joined. *)
let test_cells_exact_after_join () =
  let c = Registry.counter "test_obs_cells_total" ~help:"cells" in
  let h = Registry.histogram "test_obs_cells_hist" ~help:"cells" in
  Counter.reset c;
  Histogram.reset h;
  let per_domain = 20_000 in
  let work k () =
    for i = 1 to per_domain do
      Counter.add c 3;
      Histogram.observe h ((k * 1000) + (i land 511))
    done
  in
  List.iter Domain.join (List.init 3 (fun k -> Domain.spawn (work (k + 1))));
  work 0 ();
  let n = 4 * per_domain in
  Alcotest.(check int) "counter" (3 * n) (Counter.get c);
  Alcotest.(check int) "count" n (Histogram.count h);
  let per_k k = per_domain * k * 1000 in
  let low = (per_domain / 512) * (511 * 512 / 2) + (per_domain mod 512 * (per_domain mod 512 + 1) / 2) in
  Alcotest.(check int) "sum" (4 * low + per_k 1 + per_k 2 + per_k 3) (Histogram.sum h);
  Alcotest.(check int) "max over domains" (3000 + 511) (Histogram.max_value h);
  Alcotest.(check int) "buckets" n (Array.fold_left ( + ) 0 (Histogram.bucket_counts h))

(* Domains spawned one after another hand their cells on: totals stay
   exact and the cell arrays are reused, not one per domain. *)
let test_cells_sequential_domains () =
  let c = Registry.counter "test_obs_cells_seq_total" ~help:"cells" in
  let h = Registry.histogram "test_obs_cells_seq_hist" ~help:"cells" in
  Counter.reset c;
  Histogram.reset h;
  let arrays = Hopi_obs.Cells.arrays () in
  for k = 1 to 64 do
    Domain.join
      (Domain.spawn (fun () ->
           Counter.incr c;
           Histogram.observe h k))
  done;
  Alcotest.(check int) "counter" 64 (Counter.get c);
  Alcotest.(check int) "count" 64 (Histogram.count h);
  Alcotest.(check int) "sum" (64 * 65 / 2) (Histogram.sum h);
  Alcotest.(check int) "max" 64 (Histogram.max_value h);
  Alcotest.(check bool) "at most one new cell array" true
    (Hopi_obs.Cells.arrays () <= arrays + 1)

let test_registry_reset_zeroes_cells () =
  let c = Registry.counter "test_obs_cells_reset_total" ~help:"cells" in
  let h = Registry.histogram "test_obs_cells_reset_hist" ~help:"cells" in
  let g = Registry.gauge "test_obs_cells_reset_gauge" ~help:"cells" in
  let record () =
    Counter.add c 5;
    Histogram.observe h 100;
    Gauge.set g 7
  in
  (* cells on a running domain, an exited one and this one *)
  let go = Atomic.make false and recorded = Atomic.make false in
  let live =
    Domain.spawn (fun () ->
        record ();
        Atomic.set recorded true;
        while not (Atomic.get go) do
          Domain.cpu_relax ()
        done)
  in
  Domain.join (Domain.spawn record);
  record ();
  while not (Atomic.get recorded) do
    Domain.cpu_relax ()
  done;
  Alcotest.(check int) "recorded" 15 (Counter.get c);
  Registry.reset ();
  Alcotest.(check int) "counter zeroed" 0 (Counter.get c);
  Alcotest.(check int) "count zeroed" 0 (Histogram.count h);
  Alcotest.(check int) "sum zeroed" 0 (Histogram.sum h);
  Alcotest.(check int) "max zeroed" 0 (Histogram.max_value h);
  Alcotest.(check int) "gauge zeroed" 0 (Gauge.get g);
  Atomic.set go true;
  Domain.join live;
  Alcotest.(check int) "still zero after the domain exits" 0 (Counter.get c)

(* Same shape for the timing aggregators fed by pool workers: a plain
   [float ref] would lose updates under this load, Timer.Acc and
   Stats.Recorder must not. *)
let test_multi_domain_timing () =
  let acc = Hopi_util.Timer.Acc.create () in
  let rec_ = Hopi_util.Stats.Recorder.create () in
  let per_domain = 50_000 and n_domains = 4 in
  let work () =
    for _ = 1 to per_domain do
      Hopi_util.Timer.Acc.add_ns acc 3L;
      Hopi_util.Stats.Recorder.record rec_ 2.0
    done
  in
  let domains = List.init (n_domains - 1) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join domains;
  let total = n_domains * per_domain in
  Alcotest.(check (float 1e-12)) "no lost ns"
    (float_of_int (3 * total) *. 1e-9)
    (Hopi_util.Timer.Acc.total_s acc);
  let s = Hopi_util.Stats.Recorder.summary rec_ in
  Alcotest.(check int) "no lost samples" total s.Hopi_util.Stats.n;
  Alcotest.(check (float 1e-9)) "summary mean" 2.0 s.Hopi_util.Stats.mean

(* {1 Exporter hardening} *)

let test_add_float_nonfinite () =
  let render f =
    let b = Buffer.create 16 in
    Export.add_float b f;
    Buffer.contents b
  in
  Alcotest.(check string) "nan" "null" (render Float.nan);
  Alcotest.(check string) "+inf" "null" (render Float.infinity);
  Alcotest.(check string) "-inf" "null" (render Float.neg_infinity);
  Alcotest.(check string) "integer-valued" "2.0" (render 2.0);
  Alcotest.(check string) "fractional" "2.5" (render 2.5);
  (* a span with non-finite derived values must still export as JSON *)
  validate_json (Printf.sprintf "[%s, %s]" (render Float.nan) (render 0.25))

(* {1 Trace retention} *)

let test_trace_retention () =
  Trace.reset ();
  Trace.set_max_roots 4;
  Fun.protect ~finally:(fun () ->
      Trace.set_max_roots Trace.default_max_roots;
      Trace.reset ())
  @@ fun () ->
  for i = 1 to 10 do
    Trace.with_span (Printf.sprintf "retention_%d" i) (fun () -> ())
  done;
  let roots = Trace.roots () in
  Alcotest.(check int) "bounded at cap" 4 (List.length roots);
  (* drop-oldest: the survivors are the newest four, oldest-first *)
  Alcotest.(check (list string))
    "newest roots survive"
    [ "retention_7"; "retention_8"; "retention_9"; "retention_10" ]
    (List.map (fun sp -> sp.Trace.name) roots);
  Alcotest.(check int) "drops counted" 6 (Trace.dropped ());
  Trace.reset ();
  Alcotest.(check int) "reset clears roots" 0 (List.length (Trace.roots ()));
  Alcotest.(check int) "reset clears drop count" 0 (Trace.dropped ())

(* {1 Chrome trace exporter} *)

module Chrome = Hopi_obs.Chrome

let test_chrome_trace_schema () =
  Trace.reset ();
  Trace.with_span "chrome.root" (fun () ->
      Trace.add "items" 3;
      Trace.with_span "chrome.child \"quoted\\path\"" (fun () ->
          Trace.add "nested" 1);
      Trace.with_span "chrome.child2" (fun () -> ()));
  Trace.with_span "chrome.second_root" (fun () -> ());
  let json = Chrome.to_json () in
  validate_json json;
  (* trace-event schema essentials: the traceEvents array, complete
     ("X") events carrying ts/dur in microseconds, and thread metadata
     ("M") naming the domain lanes *)
  Alcotest.(check bool) "traceEvents array" true (contains json {|"traceEvents":[|});
  Alcotest.(check bool) "display unit" true (contains json {|"displayTimeUnit":"ms"|});
  Alcotest.(check bool) "complete events" true (contains json {|"ph":"X"|});
  Alcotest.(check bool) "metadata events" true (contains json {|"ph":"M"|});
  Alcotest.(check bool) "process name" true (contains json {|"process_name"|});
  Alcotest.(check bool) "timestamps" true (contains json {|"ts":|});
  Alcotest.(check bool) "durations" true (contains json {|"dur":|});
  Alcotest.(check bool) "category" true (contains json {|"cat":"hopi"|});
  Alcotest.(check bool) "span names survive escaping" true
    (contains json {|"name":"chrome.child \"quoted\\path\""|});
  Alcotest.(check bool) "counters in args" true (contains json {|"items":3|});
  Alcotest.(check bool) "exclusive time in args" true (contains json {|"exclusive_us":|});
  (* the earliest root anchors the timeline at ts 0 *)
  Alcotest.(check bool) "timeline starts at 0" true (contains json {|"ts":0.000|});
  let occurrences needle =
    let count = ref 0 and i = ref 0 in
    let n = String.length json and nn = String.length needle in
    while !i + nn <= n do
      if String.sub json !i nn = needle then incr count;
      incr i
    done;
    !count
  in
  Alcotest.(check int) "n_events counts the span events" (Chrome.n_events ())
    (occurrences {|"ph":"X"|});
  (* one process_name plus one thread_name per distinct domain lane *)
  Alcotest.(check bool) "metadata lanes" true (occurrences {|"ph":"M"|} >= 2);
  Trace.reset ()

(* {1 Request tracing (Reqtrace)} *)

module Reqtrace = Hopi_obs.Reqtrace
module Slo = Hopi_obs.Slo

(* restores global slowlog state so later suites start clean *)
let with_reqtrace_defaults f =
  Fun.protect
    ~finally:(fun () ->
      Reqtrace.disable_slowlog ();
      Reqtrace.set_slowlog_capacity Reqtrace.default_slowlog_capacity)
    f

let finish_trivial tok i =
  ignore
    (Reqtrace.finish tok ~kind:"reach"
       ~query:(fun () -> Printf.sprintf "reach %d %d" i (i + 1))
       ~answer:(fun () -> "true"))

let test_reqtrace_attribution () =
  with_reqtrace_defaults @@ fun () ->
  Reqtrace.set_slow_threshold_ns 0;
  Reqtrace.reset_slowlog ();
  let tok = Reqtrace.start () in
  Reqtrace.Local.note_cache_hit ();
  Reqtrace.Local.note_cache_miss ();
  Reqtrace.Local.note_cache_miss ();
  Reqtrace.Local.note_label_probe ();
  for _ = 1 to 3 do
    Reqtrace.Local.note_pager_read ()
  done;
  let latency =
    Reqtrace.finish tok ~kind:"dist"
      ~query:(fun () -> "dist 1 2")
      ~answer:(fun () -> "unreachable")
  in
  Alcotest.(check bool) "latency measured" true (latency >= 0);
  match Reqtrace.slowlog () with
  | [] -> Alcotest.fail "slowlog empty at threshold 0"
  | s :: _ ->
    Alcotest.(check string) "kind" "dist" s.Reqtrace.kind;
    Alcotest.(check string) "query" "dist 1 2" s.Reqtrace.query;
    Alcotest.(check string) "answer" "unreachable" s.Reqtrace.answer;
    Alcotest.(check int) "cache hits attributed" 1 s.Reqtrace.cache_hits;
    Alcotest.(check int) "cache misses attributed" 2 s.Reqtrace.cache_misses;
    Alcotest.(check int) "label probes attributed" 1 s.Reqtrace.labels_probed;
    Alcotest.(check int) "pager reads attributed" 3 s.Reqtrace.pager_reads;
    Alcotest.(check bool) "per-kind histogram fed" true
      (Histogram.count
         (Registry.histogram "hopi_serve_query_kind_dist_duration_ns")
       >= 1);
    let dump = Format.asprintf "%a" Reqtrace.pp_slowlog () in
    Alcotest.(check bool) "dump shows the query" true (contains dump "dist 1 2");
    Alcotest.(check bool) "dump shows attribution" true
      (contains dump "2 misses \xc2\xb7 1 label set probed \xc2\xb7 3 page reads")

let test_reqtrace_ring () =
  with_reqtrace_defaults @@ fun () ->
  Reqtrace.set_slow_threshold_ns 0;
  Reqtrace.set_slowlog_capacity 4;
  for i = 1 to 10 do
    finish_trivial (Reqtrace.start ()) i
  done;
  let entries = Reqtrace.slowlog () in
  Alcotest.(check int) "ring bounded" 4 (List.length entries);
  Alcotest.(check int) "all pushes counted" 10 (Reqtrace.slowlog_total ());
  (* drop-oldest: newest-first ids strictly descending, newest on top *)
  let ids = List.map (fun s -> s.Reqtrace.id) entries in
  Alcotest.(check bool) "ids descending" true
    (List.for_all2 ( > ) (List.filteri (fun i _ -> i < 3) ids) (List.tl ids));
  let queries = List.map (fun s -> s.Reqtrace.query) entries in
  Alcotest.(check (list string)) "newest four survive"
    [ "reach 10 11"; "reach 9 10"; "reach 8 9"; "reach 7 8" ]
    queries;
  Reqtrace.reset_slowlog ();
  Alcotest.(check int) "reset empties ring" 0 (List.length (Reqtrace.slowlog ()));
  (* above-threshold requests are the only ones recorded *)
  Reqtrace.set_slow_threshold_ns max_int;
  finish_trivial (Reqtrace.start ()) 99;
  Alcotest.(check int) "fast queries skip the ring" 0
    (List.length (Reqtrace.slowlog ()))

(* hopi_serve_reach_cut_total is a plain counter: cuts bumped on this
   domain and on another read back exactly once the other has joined,
   with no refresh in between, and a refresh adds nothing *)
let test_reqtrace_reach_cut_counter () =
  let c = Registry.counter "hopi_serve_reach_cut_total" in
  let before = Counter.get c in
  Counter.incr c;
  Domain.join
    (Domain.spawn (fun () ->
         Counter.incr c;
         Counter.incr c));
  Alcotest.(check int) "every domain's cuts counted" (before + 3) (Counter.get c);
  ignore (Reqtrace.refresh ());
  Alcotest.(check int) "a refresh adds nothing" (before + 3) (Counter.get c)

let test_slo () =
  let hist = Registry.histogram "test_obs_slo_hist" ~help:"test" in
  Histogram.reset hist;
  let slo = Slo.create ~name:"test_obs" ~hist in
  Alcotest.(check string) "name" "test_obs" (Slo.name slo);
  (* empty histogram meets every target *)
  Slo.set_targets ~p50_ns:1 ~p95_ns:1 ~p99_ns:1 slo;
  Alcotest.(check bool) "empty histogram ok" true (Slo.update slo);
  (* all observations over a tiny target: breach *)
  for _ = 1 to 100 do
    Histogram.observe hist 1_000_000
  done;
  Alcotest.(check bool) "tiny targets breached" false (Slo.update slo);
  Alcotest.(check bool) "met reflects breach" false (Slo.met slo);
  Alcotest.(check bool) "breach counted" true
    (Counter.get (Registry.counter "hopi_slo_test_obs_breaches_total") >= 1);
  Alcotest.(check bool) "observed p95 published" true
    (Gauge.get (Registry.gauge "hopi_slo_test_obs_p95_ns") >= 1_000_000);
  (* generous targets: ok again *)
  Slo.set_targets ~p50_ns:max_int ~p95_ns:max_int ~p99_ns:max_int slo;
  Alcotest.(check bool) "generous targets hold" true (Slo.update slo);
  Alcotest.(check bool) "met reflects ok" true (Slo.met slo);
  Alcotest.(check int) "ok gauge" 1 (Gauge.get (Registry.gauge "hopi_slo_test_obs_ok"))

(* {1 Prometheus exposition-format lint}

   A sequential pass over [Export.prometheus ()] checking the structure a
   scraper relies on: [# HELP] immediately followed by its [# TYPE], legal
   metric-name charset, known metric kinds, and every sample grouped under
   the [# TYPE] that declared it (histograms may add [_bucket]/[_sum]/
   [_count]). *)

let valid_metric_name s =
  let name_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = ':'
  in
  String.length s > 0
  && (not (s.[0] >= '0' && s.[0] <= '9'))
  && String.for_all name_char s

let lint_prometheus out =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let rec go pending_help current = function
    | [] | [ "" ] -> if pending_help = None then Ok () else Error "dangling # HELP"
    | "" :: _ -> Error "blank line inside exposition"
    | line :: rest when line.[0] = '#' -> (
      match String.split_on_char ' ' line with
      | "#" :: "HELP" :: name :: _ ->
        if pending_help <> None then fail "HELP not followed by TYPE before %s" name
        else if not (valid_metric_name name) then fail "bad HELP name %S" name
        else go (Some name) current rest
      | [ "#"; "TYPE"; name; kind ] ->
        if not (valid_metric_name name) then fail "bad TYPE name %S" name
        else if (match pending_help with Some h -> h <> name | None -> false) then
          fail "HELP/TYPE name mismatch at %s" name
        else if not (List.mem kind [ "counter"; "gauge"; "histogram" ]) then
          fail "unknown kind %S for %s" kind name
        else go None (Some (name, kind)) rest
      | _ -> fail "malformed comment line %S" line)
    | line :: rest -> (
      if pending_help <> None then fail "sample between HELP and TYPE: %S" line
      else
        match String.index_opt line ' ' with
        | None -> fail "sample without value: %S" line
        | Some sp -> (
          let name_part = String.sub line 0 sp in
          let base =
            match String.index_opt name_part '{' with
            | Some i -> String.sub name_part 0 i
            | None -> name_part
          in
          if not (valid_metric_name base) then fail "bad sample name %S" base
          else
            match current with
            | None -> fail "sample before any TYPE: %S" line
            | Some (tname, kind) ->
              let grouped =
                if kind = "histogram" then
                  base = tname ^ "_bucket" || base = tname ^ "_sum"
                  || base = tname ^ "_count"
                else base = tname
              in
              if grouped then go None current rest
              else fail "sample %s not under its TYPE %s" base tname))
  in
  go None None (String.split_on_char '\n' out)

let check_lint out =
  match lint_prometheus out with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "prometheus lint: %s" msg

let test_prometheus_lint () =
  (* adversarial help text: backslashes and newlines must be escaped such
     that the line structure survives *)
  ignore
    (Registry.counter "test_obs_lint_total"
       ~help:"first line\nsecond \\ line with \"quotes\"");
  ignore (Registry.histogram "test_obs_lint_hist" ~help:"h");
  Histogram.observe (Registry.histogram "test_obs_lint_hist") 5;
  let out = Export.prometheus () in
  Alcotest.(check bool) "escaped newline" true
    (contains out {|# HELP test_obs_lint_total first line\nsecond \\ line with "quotes"|});
  check_lint out

(* {1 Property tests: exporters stay well-formed under arbitrary strings} *)

let qc_count = 100

let prop_json_export_wellformed =
  QCheck2.Test.make ~count:qc_count
    ~name:"Export.to_json / Chrome.to_json well-formed for arbitrary span text"
    QCheck2.Gen.(
      pair (string_size (int_bound 30))
        (small_list (pair (string_size (int_bound 12)) small_nat)))
    (fun (span_name, counters) ->
      Trace.reset ();
      Trace.with_span span_name (fun () ->
          List.iter (fun (k, v) -> Trace.add k v) counters;
          Trace.with_span (span_name ^ "\xff\x00child") (fun () -> ()));
      let ok s = try validate_json s; true with Bad_json _ -> false in
      let json_ok = ok (Export.to_json ()) and chrome_ok = ok (Chrome.to_json ()) in
      Trace.reset ();
      json_ok && chrome_ok)

let qc_help_slot = ref 0

let prop_prometheus_lint_wellformed =
  QCheck2.Test.make ~count:50
    ~name:"Export.prometheus lints clean for arbitrary help text"
    QCheck2.Gen.(string_size (int_bound 40))
    (fun help ->
      (* rotate over a small set of names so the suite doesn't flood the
         registry; the first registration's help wins, which is fine —
         every round still lints the full exposition *)
      incr qc_help_slot;
      ignore
        (Registry.counter
           (Printf.sprintf "test_obs_qc_help_%d_total" (!qc_help_slot land 7))
           ~help);
      match lint_prometheus (Export.prometheus ()) with
      | Ok () -> true
      | Error msg -> QCheck2.Test.fail_reportf "lint: %s" msg)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "counter" `Quick test_counter;
        Alcotest.test_case "gauge" `Quick test_gauge;
        Alcotest.test_case "histogram basic" `Quick test_histogram_basic;
        Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
        Alcotest.test_case "histogram summary" `Quick test_histogram_summary;
        Alcotest.test_case "span nesting" `Quick test_spans;
        Alcotest.test_case "span exception safety" `Quick test_span_exception;
        Alcotest.test_case "json export" `Quick test_json_export;
        Alcotest.test_case "prometheus export" `Quick test_prometheus_export;
        Alcotest.test_case "multi-domain stress" `Quick test_multi_domain;
        Alcotest.test_case "cells exact after concurrent domains join" `Quick
          test_cells_exact_after_join;
        Alcotest.test_case "cells: 64 sequential domains, bounded arrays" `Quick
          test_cells_sequential_domains;
        Alcotest.test_case "Registry.reset zeroes every cell" `Quick
          test_registry_reset_zeroes_cells;
        Alcotest.test_case "multi-domain timing aggregators" `Quick
          test_multi_domain_timing;
        Alcotest.test_case "add_float non-finite guard" `Quick
          test_add_float_nonfinite;
        Alcotest.test_case "trace root retention is bounded" `Quick
          test_trace_retention;
        Alcotest.test_case "chrome trace schema" `Quick test_chrome_trace_schema;
        Alcotest.test_case "reqtrace per-request attribution" `Quick
          test_reqtrace_attribution;
        Alcotest.test_case "reqtrace slowlog ring drops oldest" `Quick
          test_reqtrace_ring;
        Alcotest.test_case "reqtrace reach-cut counter sums domains" `Quick
          test_reqtrace_reach_cut_counter;
        Alcotest.test_case "slo targets and breach accounting" `Quick test_slo;
        Alcotest.test_case "prometheus exposition lint" `Quick test_prometheus_lint;
      ] );
    ( "obs.properties",
      qsuite [ prop_json_export_wellformed; prop_prometheus_lint_wellformed ] );
  ]
