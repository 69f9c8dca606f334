(** Divide-and-conquer index construction (Sections 3.3 and 4):
    partition the document-level graph, build one 2-hop cover per partition
    (optionally preselecting cross-link targets as centers), and join the
    covers with either the incremental or the PSG algorithm. *)

type result = {
  cover : Hopi_twohop.Cover.t;
  partitioning : Hopi_collection.Partitioning.t;
  partition_entries : int;  (** Σ sizes of the partition covers *)
  join_entries : int;  (** entries added by the join phase *)
  closure_connections : int;  (** Σ per-partition closure sizes *)
  build_seconds : float;
  partition_seconds : float;
  cover_seconds : float;
  join_seconds : float;
  jobs : int;  (** size of the domain pool the build ran on *)
  cover_cpu_seconds : float;
      (** cover-phase CPU time summed across pool domains;
          [cover_cpu_seconds /. cover_seconds] is the cover speedup *)
  join_cpu_seconds : float;  (** likewise for the join phase *)
}

val build : Config.t -> Hopi_collection.Collection.t -> result
(** Builds on a {!Hopi_util.Pool} of [config.jobs] domains.  The resulting
    cover is identical — entry-for-entry and in stored order — for every
    [jobs] value: per-partition results land in partition-indexed slots and
    all merging happens on the calling domain in deterministic order. *)
