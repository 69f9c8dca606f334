(** 2-hop covers: per-node label sets [Lin]/[Lout] plus the inverted
    (backward) indexes needed to enumerate ancestors and descendants — the
    in-memory form of the paper's LIN/LOUT tables with forward and
    backward indexes (Section 3.4).

    A cover is a {b frozen base} plus a small {b mutable overlay}.

    - The base holds, per direction, one row per node, sorted by center,
      with the distances beside the centers (no distance array at all when
      every distance is 0), and the backward rows: per center, the nodes
      naming it, ascending.  Rows sit end to end in flat arrays over the
      {e keys}: the registered nodes plus every center that is not one,
      ascending — the directory of {!Hopi_storage.Cover_store}, which
      copies the rows as they are ({!frozen}).
    - The overlay takes every write: per node and direction, its whole
      current row once it is written (copied from the base on the first
      write); per center, the nodes added to and removed from its backward
      row; and the nodes registered or unregistered since the freeze.
      Reads merge the base with the overlay.  {!compact} folds the overlay
      into a new base.

    The build makes its covers frozen: {!Builder} and {!Dist_builder}
    compact the cover they wrote, and the final cover of a build is one
    {!merge} of the partition covers' rows with the join's sorted entry
    arrays.  Maintenance writes to the overlay; the store write compacts.

    Each entry carries the paper's optional DIST column (Section 5.1): the
    shortest distance from the node to its [Lout] center, or from the [Lin]
    center to the node.  It defaults to 0, so a plain cover is a distance
    cover whose distances are all 0, as in the store.  [Dist_builder]
    fills real distances; [Builder] never does.

    Following the paper, a node is {e never} stored in its own labels; the
    query operations account for the implicit self-entries (distance 0). *)

type t

val create : ?initial:int -> unit -> t
(** An empty cover; [initial] sizes the overlay's tables. *)

val add_node : t -> int -> unit
(** Register a node with empty labels (idempotent). *)

val mem_node : t -> int -> bool

val nodes : t -> int list
(** The registered nodes, in no particular order. *)

val add_in : ?dist:int -> t -> node:int -> center:int -> unit
(** Add [center] to [Lin(node)] at distance [dist] (default 0); an entry
    already present keeps the smaller distance.  Self-entries are silently
    skipped.
    @raise Invalid_argument on a negative [dist], or on a node or center
    outside [\[0, 2^31)] when [dist > 0]. *)

val add_out : ?dist:int -> t -> node:int -> center:int -> unit

val pack_entry : node:int -> center:int -> int
(** [(node lsl 31) lor center], the entry form {!merge} reads.  Both
    components must be in [0, 2^31) — the id range the storage layer
    accepts anyway.
    @raise Invalid_argument otherwise. *)

val lin : t -> int -> Hopi_util.Int_set.t
(** Snapshot of [Lin(node)] (without the implicit self-entry). *)

val lout : t -> int -> Hopi_util.Int_set.t

val lin_cardinal : t -> int -> int
(** [|Lin(v)|] without snapshotting the set. *)

val lout_cardinal : t -> int -> int

val iter_lin : t -> int -> (int -> int -> unit) -> unit
(** [iter_lin t v f] calls [f center dist] once per explicit entry of
    [Lin(v)], in no particular order (ascending by center for a row the
    overlay does not hold). *)

val iter_lout : t -> int -> (int -> int -> unit) -> unit

val in_labelled_with : t -> int -> Hopi_util.Int_set.t
(** [in_labelled_with t w] = nodes [v] with [w ∈ Lin(v)] — the backward
    index on LIN, as a snapshot. *)

val out_labelled_with : t -> int -> Hopi_util.Int_set.t

val connected : t -> int -> int -> bool
(** [connected t u v] iff [(Lout(u) ∪ {u}) ∩ (Lin(v) ∪ {v}) ≠ ∅].
    Reflexive: [connected t v v = true] for registered [v]. *)

val dist : t -> int -> int -> int option
(** [dist t u v] = the least [dout(u, w) + din(w, v)] over the common
    centers [w] of [Lout(u) ∪ {u}] and [Lin(v) ∪ {v}] — the paper's
    [MIN(LOUT.DIST + LIN.DIST)].  [None] iff not {!connected}; on a plain
    cover every connected pair answers [Some 0], as the store does. *)

val descendants : t -> int -> Hopi_util.Int_hashset.t
(** All [v] with [connected t u v], including [u] itself.  Fresh set. *)

val ancestors : t -> int -> Hopi_util.Int_hashset.t

val size : t -> int
(** Cover size |L| = Σ (|Lin(v)| + |Lout(v)|) — the paper's "entries". *)

val union_into : dst:t -> t -> unit
(** Component-wise union of label sets keeping the smaller distance of
    each entry, written to [dst]'s overlay (maintenance adds a freshly
    built partial cover this way). *)

val set_lin : t -> int -> Hopi_util.Int_set.t -> unit
(** Replace [Lin(node)] wholesale (deletion maintenance); keeps the backward
    index consistent.  Entries that stay keep their distance; new ones are
    at distance 0. *)

val set_lout : t -> int -> Hopi_util.Int_set.t -> unit

val remove_node : t -> int -> unit
(** Drop the node's labels and all label entries naming it as a center. *)

val set_on_label_change : t -> (int -> unit) option -> unit
(** Install (or clear) a hook called with a node id whenever that node's
    [Lin] or [Lout] set actually changes — label additions, a lowered
    distance, wholesale replacement, and the backward-index fan-out of
    {!remove_node} all report every affected node.  Pure registration churn
    ({!add_node}) and {!compact} do not fire.  The generational serving
    layer uses this to track which cached label arrays a maintenance batch
    dirtied.  The hook runs synchronously under the mutation and must not
    call back into the cover. *)

(** {2 The frozen base} *)

val compact : t -> unit
(** Fold the overlay into a new base, in place: the labels stay the same
    and every later read comes from flat rows.  A no-op when the overlay
    is empty.  The keys become exactly the registered nodes plus the
    centers still named. *)

val merge : t array -> lout:int array -> lin:int array -> t
(** [merge covers ~lout ~lin] is the frozen cover holding [covers]'
    labels and the packed entries ({!pack_entry}) of [lout] and [lin],
    each exactly an {!add_out}/{!add_in} at distance 0: self-entries are
    skipped and repeats count once.  The covers must have disjoint nodes,
    as the partitions of a build do; {!union_into} joins overlapping ones.
    Its nodes are every cover's nodes and every node a packed entry other
    than a self-entry names.  The packed arrays must be sorted ascending.
    The covers are compacted first; then every row is one linear merge of
    its node's cover row with a run of the packed array (this is the
    build's [join.psg.bulk] stage).
    @raise Invalid_argument if two covers register the same node. *)

val of_closure : Hopi_graph.Closure.t -> t
(** The trivial frozen cover of a closure: [Lout(v)] holds every node [v]
    reaches but itself, and every [Lin] is empty. *)

(** One direction of the base, over the key slots [i]: the forward row of
    [keys.(i)] is [ctr.(off.(i))] .. [ctr.(off.(i + 1) - 1)], center ids
    ascending, with the distances at the same positions of [dist]; the
    backward row of center [keys.(i)] is [by_node.(by_off.(i))] ..
    [by_node.(by_off.(i + 1) - 1)], {e slots} of the nodes naming it,
    ascending, with [by_dist] beside.  A distance array is empty when
    every distance is 0.  None of the arrays may be written to. *)
type rows = {
  off : int array;
  ctr : int array;
  dist : int array;
  by_off : int array;
  by_node : int array;
  by_dist : int array;
}

type frozen = { keys : int array; lin : rows; lout : rows }

val slot : int array -> int -> int
(** [slot keys v]: the index of [v] in the strictly ascending [keys], or
    [-1] — no search when the keys, or the keys up to [v], are
    consecutive integers, a binary search otherwise. *)

val frozen : t -> frozen
(** The base, after {!compact}: [keys] ascending (the registered nodes —
    {!mem_node} — plus every center that is not one) and both
    directions' rows. *)
