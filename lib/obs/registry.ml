(* The process-wide metric registry.

   Instrumented modules create their metrics once at module-initialisation
   time through the factory functions below; recording afterwards touches
   only the metric's own cells or atomic, never the registry.  Registration is the
   cold path and takes a mutex so concurrent domains cannot race the table;
   re-registering a name returns the existing metric, so the factories are
   idempotent (module init order and repeated linking don't matter).

   Naming convention: [hopi_<layer>_<metric>], with counter names suffixed
   [_total] and duration histograms suffixed [_duration_ns] (see
   DESIGN.md, Observability). *)

type metric =
  | Counter of Counter.t
  | Gauge of Gauge.t
  | Histogram of Histogram.t

let mu = Mutex.create ()

let tbl : (string, metric) Hashtbl.t = Hashtbl.create 64

let with_lock f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let mismatch name =
  invalid_arg
    (Printf.sprintf "Hopi_obs.Registry: %S already registered with another type" name)

let counter ?(help = "") name =
  with_lock (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some (Counter c) -> c
      | Some _ -> mismatch name
      | None ->
        let c = Counter.make ~name ~help in
        Hashtbl.add tbl name (Counter c);
        c)

let gauge ?(help = "") name =
  with_lock (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some (Gauge g) -> g
      | Some _ -> mismatch name
      | None ->
        let g = Gauge.make ~name ~help in
        Hashtbl.add tbl name (Gauge g);
        g)

let histogram ?(help = "") name =
  with_lock (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some (Histogram h) -> h
      | Some _ -> mismatch name
      | None ->
        let h = Histogram.make ~name ~help in
        Hashtbl.add tbl name (Histogram h);
        h)

let find name = with_lock (fun () -> Hashtbl.find_opt tbl name)

(* All registered metrics, sorted by name for stable exports. *)
let metrics () =
  with_lock (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) tbl [])
  |> List.sort (fun a b ->
         let name = function
           | Counter c -> Counter.name c
           | Gauge g -> Gauge.name g
           | Histogram h -> Histogram.name h
         in
         String.compare (name a) (name b))

(* Zero every metric's value; registrations are kept.  The bench harness
   calls this between experiments so each BENCH_*.json is a clean delta.
   Counters and histograms live in the domain-local cells, which are all
   zeroed, in every domain; gauges are atomics of their own. *)
let reset () =
  with_lock (fun () ->
      Cells.reset_all ();
      Hashtbl.iter (fun _ -> function Gauge g -> Gauge.reset g | Counter _ | Histogram _ -> ()) tbl)
