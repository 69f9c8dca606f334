(** Build configuration: which partitioner, which join algorithm, which edge
    weights — the knobs varied across the paper's Table 2. *)

type partitioner =
  | Whole  (** no partitioning; build one cover for the full graph *)
  | Singleton  (** one document per partition — Table 2 row [single] *)
  | Random_nodes of int
      (** EDBT'04 partitioner with an element-count limit — rows P5..P50
          (limit [x·10^4] elements in the paper) *)
  | Closure_aware of int
      (** new partitioner with a closure-connection limit — rows N10..N100
          (limit [x·10^5] connections) *)

type joiner =
  | Incremental  (** EDBT'04 link-by-link join (Section 3.3) — Table 2 baseline *)
  | Psg  (** new PSG join, H̄ from one closure of the PSG (Section 4.1) *)
  | Psg_partitioned of int
      (** PSG join with the recursive PSG partitioning, per-PSG-partition
          closure budget (Section 4.1, "if the PSG is too large") *)

type t = {
  partitioner : partitioner;
  joiner : joiner;
  weight_scheme : Hopi_partition.Weights.scheme;
  preselect_link_targets : bool;  (** Section 4.2 center preselection *)
  seed : int;  (** seed for the (randomized) partitioners *)
  jobs : int;
      (** per-partition covers are independent, so they "can be done
          concurrently" (Section 4.1) — total worker-domain parallelism of
          the build's {!Hopi_util.Pool} (1 = sequential).  The cover is
          identical for any [jobs]: results merge in partition order. *)
}

val default : t
(** Closure-aware partitioning ([Closure_aware 100_000]), PSG join, [A*D]
    weights, preselection on. *)

val baseline_edbt04 : t
(** Random partitioner + incremental join + link-count weights — the paper's
    Table 2 baseline configuration. *)

val pp : Format.formatter -> t -> unit
