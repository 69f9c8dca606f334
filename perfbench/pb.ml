(* pb — the benchmark's own program; run.py invokes its subcommands.

     pb corpus  --seed S --docs N --out DIR
     pb prepare --corpus DIR --mix hot|cold|live --seed S --docs N
                --batch B --frames P [--groups G --corpus-seed C] --out REQ
     pb warmup  --socket PATH --req REQ --conns N
     pb load    --socket PATH --req REQ --conns N --closed-s X
                --lo R --hi R --open-s Y   (Y = 0: closed loop only)
                --server-pid PID
                [--writer-socket PATH --writer-every F] [--rt-s Z]
     pb trace   --req REQ --corpus DIR --jobs J --cache-mb M
                --pool-pages P --spans FILE
                (--store FILE | --shard DIR | --live BASE --groups G)

   Every subcommand prints one JSON object on stdout. *)

let args = Hashtbl.create 16

let () =
  let a = Sys.argv in
  let i = ref 2 in
  while !i < Array.length a do
    let k = a.(!i) in
    if String.length k > 2 && String.sub k 0 2 = "--" then begin
      let key = String.sub k 2 (String.length k - 2) in
      if !i + 1 < Array.length a && not (String.length a.(!i + 1) > 2 && String.sub a.(!i + 1) 0 2 = "--")
      then begin
        Hashtbl.replace args key a.(!i + 1);
        i := !i + 2
      end
      else begin
        Hashtbl.replace args key "";
        incr i
      end
    end
    else failwith ("unexpected argument " ^ k)
  done

let str k =
  match Hashtbl.find_opt args k with Some v -> v | None -> failwith ("missing --" ^ k)

let int k = int_of_string (str k)

let float k = float_of_string (str k)

let flag k = Hashtbl.mem args k

let print j = print_endline (Util.to_string j)

(* {1 Prepared requests} *)

let prepare () =
  let corpus = str "corpus" and seed = int "seed" and batch = int "batch" in
  let n_frames = int "frames" in
  let t0 = Util.now () in
  let p =
    match str "mix" with
    | "live" ->
      let pl =
        Live.plan ~corpus ~corpus_seed:(int "corpus-seed") ~seed ~docs:(int "docs") ~batch ~n_frames
          ~n_groups:(int "groups")
      in
      { Workload.mix = "live"; frames = pl.Live.reads; expected = pl.Live.expected;
        groups = pl.Live.groups; links = pl.Live.links }
    | m ->
      let c = Util.load_dir corpus in
      let all = ref [] in
      Hopi_collection.Collection.iter_elements c (fun e -> all := e :: !all);
      let nodes = Workload.shuffled_nodes ~seed:(int "corpus-seed") !all in
      let mix = if m = "hot" then Workload.Hot else Workload.Cold in
      let frames = Workload.frames ~mix ~seed ~nodes ~batch ~n_frames in
      let o = Workload.oracle c in
      { Workload.mix = m; frames; expected = [| Array.map (Workload.expected o) frames |];
        groups = [||]; links = [||] }
  in
  let oc = open_out_bin (str "out") in
  Marshal.to_channel oc p [];
  close_out oc;
  print
    (Util.Obj
       [ ("oracle_s", Util.Num (Util.now () -. t0)); ("frames", Util.Int (Array.length p.frames));
         ("generations", Util.Int (Array.length p.expected)) ])

let load_prepared () = Workload.load_prepared (str "req")

let requests (p : Workload.prepared) =
  {
    Loadgen.frames = p.frames;
    expected =
      (fun epoch i ->
        (* standalone and sharded stores answer with epoch 0 *)
        let e = if p.mix = "live" then epoch else 0 in
        if e >= 0 && e < Array.length p.expected then Some p.expected.(e).(i) else None);
  }

let conns n = Array.init n (fun _ -> Loadgen.connect (str "socket"))

(* User plus system CPU seconds of process [pid] so far, from
   /proc/PID/stat (fields 14 and 15, in clock ticks of 1/100 s, the
   Linux ABI's USER_HZ).  The kernel keeps time stolen by the
   hypervisor out of them. *)
let cpu_s pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  (* fields after the parenthesised command name, from field 3 on *)
  let i = String.rindex line ')' in
  let f = Array.of_list (String.split_on_char ' ' (String.sub line (i + 2) (String.length line - i - 2))) in
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) /. 100.0

let warmup () =
  let p = load_prepared () in
  let cs = conns (int "conns") in
  let t0 = Util.now () in
  (* the first 128 frames once: enough to warm a cache the workload fits *)
  let t = Loadgen.closed ~pass:128 cs (requests p) ~seconds:0.0 in
  let dt = Util.now () -. t0 in
  Array.iter Loadgen.close cs;
  print
    (Util.Obj
       [ ("warmup_s", Util.Num dt); ("sent", Util.Int t.Loadgen.sent);
         ("wrong", Util.Int t.Loadgen.wrong); ("failed", Util.Int t.Loadgen.failed) ])

(* Closed loop, then open loop at the two fixed rates (skipped when
   [--open-s] is 0).  The server's CPU time over the closed loop is
   reported with it.  With [--writer-socket], a second domain runs the
   maintenance plan on its own connection for the whole time, and reads
   use one connection. *)
let load () =
  let p = load_prepared () in
  let reqs = requests p in
  let cs = conns (int "conns") in
  let stop = Atomic.make false in
  let writer =
    if flag "writer-socket" then begin
      let wc = Loadgen.connect (str "writer-socket") in
      Some
        (Domain.spawn (fun () ->
             Fun.protect ~finally:(fun () -> Loadgen.close wc) (fun () ->
                 Live.run_writer wc p.Workload.groups ~every:(int "writer-every")
                   ~stop:(fun () -> Atomic.get stop))))
    end
    else None
  in
  let closed_s = float "closed-s" and open_s = float "open-s" in
  let server = int "server-pid" in
  let cpu0 = cpu_s server in
  let t0 = Util.now () in
  let tc = Loadgen.closed cs reqs ~seconds:closed_s in
  let closed_cpu = cpu_s server -. cpu0 in
  let batch = Array.length p.frames.(0).Workload.queries in
  let phase rate =
    let start = Util.now () in
    let t = Loadgen.open_loop cs reqs ~rate ~seconds:open_s in
    Loadgen.latency_report t ~start ~seconds:open_s
  in
  let opened =
    if open_s > 0.0 then [ ("lo", phase (float "lo")); ("hi", phase (float "hi")) ] else []
  in
  (* one connection, one request in flight: the bare round trip the
     traced run sets against in-process evaluation *)
  let rt =
    if flag "rt-s" then begin
      let t0 = Util.now () in
      let t = Loadgen.closed [| cs.(0) |] reqs ~seconds:(float "rt-s") in
      [ ("rt", Loadgen.closed_report t ~start:t0 ~seconds:(float "rt-s") ~batch) ]
    end
    else []
  in
  Atomic.set stop true;
  let writer_json =
    match writer with
    | None -> []
    | Some d ->
      let w, wall = Domain.join d in
      let vis = Util.sorted_of w.Live.visible_ms in
      [
        ( "writer",
          Util.Obj
            [
              ("groups", Util.Int w.Live.groups_done);
              ("ops", Util.Int w.Live.ops_done);
              ("attempted", Util.Int w.Live.attempted);
              ("failed", Util.Int w.Live.failed);
              ("error", match w.Live.error with None -> Util.Str "" | Some e -> Util.Str e);
              ("visible_p50_ms", Util.Num (Util.pct vis 0.5));
              ("visible_p90_ms", Util.Num (Util.pct vis 0.9));
              ("ops_s", Util.Num (float_of_int w.Live.ops_done /. wall));
              ("plan_groups", Util.Int (Array.length p.groups));
            ] );
      ]
  in
  Array.iter Loadgen.close cs;
  print
    (Util.Obj
       ((("closed", Loadgen.closed_report tc ~start:t0 ~seconds:closed_s ~batch) :: opened)
       @ [ ("server_cpu_s", Util.Num closed_cpu) ]
       @ rt @ writer_json))

let () =
  match Sys.argv with
  | [| _ |] -> prerr_endline "usage: pb corpus|prepare|warmup|load|trace ..."; exit 2
  | _ -> (
    match Sys.argv.(1) with
    | "corpus" ->
      let t0 = Util.now () in
      Util.write_corpus ~seed:(int "seed") ~docs:(int "docs") (str "out");
      print (Util.Obj [ ("corpus_s", Util.Num (Util.now () -. t0)) ])
    | "prepare" -> prepare ()
    | "warmup" -> warmup ()
    | "load" -> load ()
    | "trace" -> Layers.run ~str ~int ~flag (load_prepared ()) |> print
    | c -> failwith ("unknown subcommand " ^ c))
