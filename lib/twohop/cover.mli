(** Mutable 2-hop covers: per-node label sets [Lin]/[Lout] plus the inverted
    (backward) indexes needed to enumerate ancestors and descendants — the
    in-memory equivalent of the paper's LIN/LOUT tables with forward and
    backward indexes (Section 3.4).

    Each entry carries the paper's optional DIST column (Section 5.1): the
    shortest distance from the node to its [Lout] center, or from the [Lin]
    center to the node.  It defaults to 0, so a plain cover is a distance
    cover whose distances are all 0, as in the store.  [Dist_builder]
    fills real distances; [Builder] never does.

    Following the paper, a node is {e never} stored in its own labels; the
    query operations account for the implicit self-entries (distance 0). *)

type t

val create : ?initial:int -> unit -> t

val add_node : t -> int -> unit
(** Register a node with empty labels (idempotent). *)

val mem_node : t -> int -> bool

val n_nodes : t -> int

val iter_nodes : t -> (int -> unit) -> unit

val nodes : t -> int list

val add_in : ?dist:int -> t -> node:int -> center:int -> unit
(** Add [center] to [Lin(node)] at distance [dist] (default 0); an entry
    already present keeps the smaller distance.  Self-entries are silently
    skipped.
    @raise Invalid_argument on a negative [dist], or on a node or center
    outside [\[0, 2^31)] when [dist > 0]. *)

val add_out : ?dist:int -> t -> node:int -> center:int -> unit

(** {2 Packed batch additions}

    The build pipeline's bulk path (see [Join_psg]): entries packed with
    {!pack_entry} arrive as one array sorted ascending, so both label
    directions update in grouped passes — one bucket lookup per node group
    instead of several hash probes per entry.  Semantically each entry is
    exactly an {!add_in}/{!add_out} at distance 0 (self-entries and
    duplicates are skipped, the backward index stays consistent, the
    change hook fires once per node whose labels changed). *)

val pack_entry : node:int -> center:int -> int
(** [(node lsl 31) lor center].  Both components must be in [0, 2^31) —
    the id range the storage layer accepts anyway.
    @raise Invalid_argument otherwise. *)

val add_in_packed : t -> int array -> int
(** [add_in_packed t entries] adds every packed entry to the cover's [Lin]
    tables; [entries] must be sorted ascending.  Returns the number of
    entries that were new. *)

val add_out_packed : t -> int array -> int

val lin : t -> int -> Hopi_util.Int_set.t
(** Snapshot of [Lin(node)] (without the implicit self-entry). *)

val lout : t -> int -> Hopi_util.Int_set.t

val lin_cardinal : t -> int -> int
(** [|Lin(v)|] without snapshotting the set (allocation-free). *)

val lout_cardinal : t -> int -> int

val iter_lin : t -> int -> (int -> int -> unit) -> unit
(** [iter_lin t v f] calls [f center dist] once per explicit entry of
    [Lin(v)], in no particular order. *)

val iter_lout : t -> int -> (int -> int -> unit) -> unit

val in_labelled_with : t -> int -> Hopi_util.Int_hashset.t
(** [in_labelled_with t w] = nodes [v] with [w ∈ Lin(v)] — the backward
    index on LIN.  The result must not be mutated by the caller. *)

val out_labelled_with : t -> int -> Hopi_util.Int_hashset.t

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
    each entry (used when joining partition covers). *)

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
    {!remove_node} all report every affected node.  Pure registration churn ({!add_node})
    does not fire.  The generational serving layer uses this to track
    which cached label arrays a maintenance batch dirtied.  The hook runs
    synchronously under the mutation and must not call back into the
    cover. *)
