type t =
  | File_not_found of string
  | Io of string
  | Truncated of string
  | Bad_magic of { got : int; expected : int }
  | Bad_version of { got : int; expected : int }
  | Bad_catalog of string
  | Checksum of { page : int }

exception Storage_error of t

let raise_error e = raise (Storage_error e)

let to_string = function
  | File_not_found p -> Printf.sprintf "file not found: %s" p
  | Io msg -> Printf.sprintf "I/O error: %s" msg
  | Truncated what -> Printf.sprintf "truncated: %s" what
  | Bad_magic { got; expected } ->
    Printf.sprintf "bad magic number 0x%08x (expected 0x%08x)" got expected
  | Bad_version { got; expected } ->
    Printf.sprintf "unsupported format version %d (expected %d)" got expected
  | Bad_catalog msg -> Printf.sprintf "bad catalog: %s" msg
  | Checksum { page } -> Printf.sprintf "checksum mismatch on page %d" page

let hint = function
  | Bad_version _ ->
    Some
      "the store was written in another format version: rebuild it with \
       `hopi build CORPUS --store FILE` (or `hopi shard-split CORPUS` for a shard \
       directory)"
  | Truncated _ ->
    Some
      "every file this version writes is whole pages: a shard directory's \
       routing.idx written as text by an older version is rewritten by re-running \
       `hopi shard-split CORPUS --out DIR`; a damaged store is rebuilt with \
       `hopi build CORPUS --store FILE`"
  | _ -> None

let () =
  Printexc.register_printer (function
    | Storage_error e -> Some ("Storage_error: " ^ to_string e)
    | _ -> None)
