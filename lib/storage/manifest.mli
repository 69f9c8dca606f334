(** The generation manifest: the one-page commit point of a generational
    store family.

    A live index directory holds a family of immutable store files — the
    base file (generation 0) plus [base.gen<k>] siblings published by
    later flips — and this manifest, [base.gens], which records which
    member is being served:

    - [live]: the generation queries must be answered from;
    - [previous]: the generation [live] flipped away from, retained as the
      rollback target;
    - [tip]: the highest generation ever published (the next flip writes
      [tip + 1]).

    The manifest is itself a single-page {!Pager} file, and every
    {!commit} writes a fresh one and renames it over [base.gens]
    ({!Vfs.publish}), so the manifest rename is the commit point of a
    flip: a crash at any point of {!publish} or {!rollback} recovers (on
    the next {!recover}) to a manifest naming either the old or the new
    generation in full — never a mixture, because a generation's store
    file is published {e before} the manifest rename that makes it
    reachable.

    All functions take [?vfs] (default {!Vfs.real}) so the fault-injection
    harness can crash them at every operation. *)

type t = { live : int; previous : int; tip : int }

val path : base:string -> string
(** [path ~base] is the manifest file of the family rooted at the store
    path [base] (currently [base ^ ".gens"]). *)

val gen_path : base:string -> int -> string
(** The store file of generation [k]: [base] itself for [k = 0],
    [base.gen<k>] otherwise. *)

val read_file : ?vfs:Vfs.t -> string -> t
(** Read the committed manifest at the given manifest file — used by
    [hopi verify-store] when pointed at a [.gens] file.
    @raise Storage_error.Storage_error when missing or corrupt. *)

val commit : ?vfs:Vfs.t -> ?fsync:bool -> base:string -> t -> unit
(** Atomically replace the manifest: write a fresh one-page file and
    rename it over [base.gens].  Validates the triple
    ([0 <= live, previous <= tip]). *)

val publish :
  ?vfs:Vfs.t ->
  ?fsync:bool ->
  base:string ->
  load:(Pager.t -> unit) ->
  unit ->
  t
(** Publish generation [tip + 1]: create its store file on a fresh pager,
    run [load] to fill and save it (e.g. [Cover_store.of_cover] +
    [save]), then commit a manifest with [live = tip + 1] and [previous]
    set to the old live generation.  The manifest rename is the atomic
    flip point; until it happens, a crash leaves the old manifest intact
    and at worst a stray [tip + 1] store (published or still a temp
    file) and a temp manifest, which {!recover} deletes. *)

val rollback : ?vfs:Vfs.t -> ?fsync:bool -> base:string -> unit -> t
(** Swap [live] and [previous] (a no-op when they are equal): serving
    returns to the pre-flip generation.  [tip] is untouched, so the next
    {!publish} still writes [tip + 1] — rolling back never reuses a
    generation number. *)

val recover : ?vfs:Vfs.t -> base:string -> unit -> t option
(** Crash recovery at open time: deletes a leftover temp manifest and
    the [tip + 1] store and temp file an interrupted {!publish} may have
    left (with no manifest, only generation 0's temp file — the base
    itself is kept), then returns the committed manifest, or [None] when
    there is none.  Afterwards the family's only files are the manifest
    and generations [0..tip].
    @raise Storage_error.Storage_error on a corrupt manifest (a manifest
    is only ever replaced whole, so this is real damage). *)
