(** Approximate 2-hop-cover construction (Cohen et al.'s greedy algorithm
    with the paper's lazy priority queue, Section 3.2, plus the link-target
    center preselection of Section 4.2).

    The input is the reflexive-transitive closure of (a partition of) the
    element graph; the output cover answers exactly the connections of that
    closure. *)

type stats = {
  iterations : int;  (** centers applied (including preselected ones) *)
  recomputations : int;  (** densest-subgraph evaluations *)
  reinserts : int;  (** stale queue entries pushed back *)
}

val build :
  ?preselect_centers:int list ->
  ?only_pairs:(int * int) list ->
  Hopi_graph.Closure.t ->
  Cover.t * stats
(** [preselect_centers] are used as centers first (in the given order),
    covering every connection they lie on, before the greedy loop runs —
    the paper preselects targets of cross-partition links.

    [only_pairs] restricts the set of connections the cover must answer
    [true] for (it remains sound for all queries: labels never assert
    non-connections).  The paper uses this for the PSG cover [H̄], which
    only needs the connections from link sources to link targets
    (Section 4.1); pairs not in the closure are ignored. *)

val build_eager : Hopi_graph.Closure.t -> Cover.t * stats
(** Ablation baseline for the lazy priority queue (Section 3.2): recompute
    the densest subgraph of {e every} candidate center in every round and
    pick the true maximum.  Same covers as {!build}, far more densest-
    subgraph computations — only usable on small inputs. *)
