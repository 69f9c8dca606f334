(** Write-once row tables: a store's labels kept in the shape they are
    served, one {!Hopi_twohop.Label_codec} row per key and table.

    A row set holds a fixed number of tables over one sorted set of
    integer keys.  Row [i] of a table is the encoded label set of key [i]
    in that table, possibly empty.  On disk it is two extents of pages:

    - {b the heap}: every row of table 0 in key order, then every row of
      table 1, and so on, back to back over page payloads.  {b No
      straddling:} a row that fits in one page payload never crosses a
      page boundary — when it would, it starts on the next page and the
      rest of the current page is zero padding.  A row longer than a
      payload starts where the previous one ended and runs on over
      consecutive pages.
    - {b the directory}, after the heap: one stream of LEB128 varints
      over consecutive page payloads (its byte length is in the
      {!Catalog}).  Per key, in key order: [(key - previous key) lsl 1],
      with bit 0 set for a key that is not a registered node; the key's
      row length in each table, padding left out; then its reachability
      interval as [post] and [post - low].

    {!open_rows} reads the directory once into flat int arrays and
    replays the no-straddle rule over the row lengths to place every row
    in the heap, so a row read is an array lookup plus (usually) one page
    read through the pager's {!Pager.Read_pool}.

    The {b interval} [\[low, post\]] of a key is computed by the caller
    (see [Cover_store]) so that a key reaching another never has a
    smaller [post] or a larger [low]: {!rejects} answers a "no" from two
    array lookups. *)

type t

(** {1 Writing} *)

type writer

val writer : Pager.t -> keys:int array -> registered:(int -> bool) -> writer
(** Start a row set on a writing pager; the heap begins at the pager's
    next page, so nothing else may allocate pages until {!finish}.
    [keys] must be strictly ascending non-negative 31-bit ints.
    @raise Invalid_argument otherwise. *)

val add_table : writer -> (int -> Hopi_twohop.Label_codec.t) -> unit
(** Append the next table: [row i] is the row of key [i], asked for in
    key order. *)

val finish : writer -> post:int array -> low:int array -> t
(** Write the last heap page and the directory, with [\[low.(i),
    post.(i)\]] as the interval of key [i], and answer the row set as
    {!open_rows} would read it back — without reading a page.  Its
    {!layout} goes into the store's {!Catalog}.
    @raise Invalid_argument unless there is one interval per key.  An
    interval outside [0 <= low <= post < n_keys] fails in the same way
    {!open_rows} would. *)

(** {1 Reading} *)

val open_rows : Pager.t -> Catalog.rows -> t
(** Read the directory and place the rows.
    @raise Storage_error.Storage_error [(Bad_catalog _)] when the
    directory disagrees with the catalog: a truncated or overlong varint,
    bytes left over after the last key, keys out of order, an interval
    with [post >= n_keys] or [post - low > post], or rows that do not end
    where the heap does; [(Checksum _)] on a corrupt directory page. *)

val layout : t -> Catalog.rows
(** Where the row set lives; entry counts are the rows'
    {!Hopi_twohop.Label_codec.n_rows}. *)

val n_keys : t -> int

val key : t -> int -> int
(** The key at a slot (its rank among the keys). *)

val slot : t -> int -> int
(** The slot of a key, or [-1]: {!Hopi_twohop.Cover.slot} over the
    keys. *)

val registered : t -> int -> bool
(** Is the key at this slot a registered node? *)

val rejects : t -> int -> int -> bool
(** [rejects t i j]: [post j > post i || low i > low j] — the intervals
    rule out that the key at slot [i] reaches the key at slot [j]. *)

val dir_bytes : t -> int
(** Bytes of the directory's varint stream. *)

val entries : t -> int -> int
(** Label entries (codec rows) in a table. *)

val row : t -> int -> int -> Hopi_twohop.Label_codec.t
(** [row t table slot]: a copy of the row. *)

val load : t -> Hopi_twohop.Label_codec.cursor -> int -> int -> unit
(** [load t c table slot] points [c] at the row in place — on the pooled
    page image itself when the row fits in one page, so nothing is
    allocated. *)

val row_bytes : t -> int -> int
(** Bytes of one table's rows, padding excluded. *)
