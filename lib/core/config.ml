type partitioner =
  | Whole
  | Singleton
  | Random_nodes of int
  | Closure_aware of int

type joiner = Incremental | Psg | Psg_partitioned of int

type t = {
  partitioner : partitioner;
  joiner : joiner;
  weight_scheme : Hopi_partition.Weights.scheme;
  preselect_link_targets : bool;
  seed : int;
  jobs : int;
}

let default =
  {
    partitioner = Closure_aware 100_000;
    joiner = Psg;
    weight_scheme = Hopi_partition.Weights.A_times_D;
    preselect_link_targets = true;
    seed = 17;
    jobs = 1;
  }

let baseline_edbt04 =
  {
    partitioner = Random_nodes 50_000;
    joiner = Incremental;
    weight_scheme = Hopi_partition.Weights.Links;
    preselect_link_targets = false;
    seed = 17;
    jobs = 1;
  }

let pp ppf t =
  let part =
    match t.partitioner with
    | Whole -> "whole"
    | Singleton -> "singleton"
    | Random_nodes n -> Printf.sprintf "random(max_elements=%d)" n
    | Closure_aware n -> Printf.sprintf "closure(max_connections=%d)" n
  in
  Format.fprintf ppf
    "partitioner=%s joiner=%s weights=%s preselect=%b seed=%d jobs=%d" part
    (match t.joiner with
    | Incremental -> "incremental"
    | Psg -> "psg"
    | Psg_partitioned n -> Printf.sprintf "psg-partitioned(%d)" n)
    (Hopi_partition.Weights.scheme_name t.weight_scheme)
    t.preselect_link_targets t.seed t.jobs
