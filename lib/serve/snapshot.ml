(* Read-only snapshot over a persisted cover store: one shared store
   handle for all domains, served through a shared read-only page pool
   (see the interface for the concurrency model).  The queries are
   Cover_store's operators; what this module adds is the frozen node set
   and the cached label fetch they run over. *)

module S = Hopi_storage
module Ihs = Hopi_util.Int_hashset

type t = {
  path : string;
  pool : S.Pager.Read_pool.t;
  pgr : S.Pager.t;
  src : S.Cover_store.source;
  cache : Label_cache.t;
  epoch : int;
  mu : Mutex.t; (* close idempotency *)
  mutable closed : bool;
}

let default_version _ = 0

(* Label sets travel in their Label_codec form: a warm fetch is one cache
   probe, a miss one forward-index range scan encoded on the way in. *)
let cached_fetch st cache node_version dir v =
  Hopi_obs.Reqtrace.Local.note_label_probe ();
  let key = Label_cache.key ~version:(node_version v) dir v in
  match Label_cache.find cache key with
  | Some enc -> enc
  | None ->
    let enc = S.Cover_store.fetch st dir v in
    Label_cache.add cache key enc;
    enc

let open_file ?(pool_pages = 4096) ?pool ?vfs ?(cache_mb = 64) ?cache
    ?(epoch = 0) ?(node_version = default_version) path =
  let vfs = match vfs with Some v -> v | None -> S.Vfs.real in
  let pool =
    match pool with
    | Some p -> p
    | None -> S.Pager.Read_pool.create ~pages:pool_pages ()
  in
  let pgr = S.Pager.open_shared_vfs ~vfs ~pool path in
  let st =
    try S.Cover_store.open_pager pgr
    with e ->
      S.Pager.close pgr;
      raise e
  in
  let cache =
    match cache with
    | Some c -> c
    | None -> Label_cache.create ~capacity_bytes:(cache_mb * 1024 * 1024) ()
  in
  (* the node registry, frozen in memory: membership tests never touch a
     page *)
  let nodes = Ihs.create () in
  S.Cover_store.iter_nodes st (Ihs.add nodes);
  let src =
    { S.Cover_store.store = st;
      mem = (fun v -> Ihs.mem nodes v);
      fetch = (fun dir v -> cached_fetch st cache node_version dir v) }
  in
  { path; pool; pgr; src; cache; epoch; mu = Mutex.create (); closed = false }

(* The pager is a shared read-only view: the B+-tree read path touches no
   mutable pager state, page lookups go through the sharded pool, and
   miss I/O serialises inside the pager — so one source serves every
   domain without a per-query lock. *)
let src t =
  if t.closed then invalid_arg "Hopi_serve.Snapshot: closed";
  t.src

let close t =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) @@ fun () ->
  if not t.closed then begin
    t.closed <- true;
    S.Pager.close t.pgr
  end

let with_dist t = S.Cover_store.with_dist t.src.store

let n_nodes t = S.Cover_store.n_nodes t.src.store

let n_entries t = S.Cover_store.n_entries t.src.store

let cache t = t.cache

let path t = t.path

let epoch t = t.epoch

let read_pool t = t.pool

let mem_node t v = (src t).mem v

let connected t u v = S.Cover_store.reach (src t) u v

let min_distance t u v = S.Cover_store.dist (src t) u v

let descendants t u = S.Cover_store.desc (src t) u

let ancestors t v = S.Cover_store.anc (src t) v
