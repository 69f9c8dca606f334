(** Typed failures of the storage engine.

    Every error path of the VFS, pager, catalog and stores raises
    {!Storage_error}; corruption is always *rejected* with one of these —
    never silently returned as data (see DESIGN.md, Storage durability). *)

type t =
  | File_not_found of string
  | Io of string  (** underlying I/O failure (wrapped [Unix] error or injected fault) *)
  | Truncated of string  (** file shorter than the structure it must hold *)
  | Bad_magic of { got : int; expected : int }
  | Bad_version of { got : int; expected : int }
  | Bad_catalog of string
      (** a catalog page, generation manifest or shard routing index is
          well-formed but inconsistent *)
  | Checksum of { page : int }  (** page failed CRC/flag verification *)

exception Storage_error of t

val raise_error : t -> 'a

val to_string : t -> string

val hint : t -> string option
(** What an operator can do about the failure, when there is something:
    a store written in another format version, or a file that is not
    whole pages (a text [routing.idx] of an older version, say), is
    rebuilt from its corpus ([hopi build --store], or [hopi shard-split]
    for a shard directory). *)
