module Crc32 = Hopi_util.Crc32

let size = 4096

let header_bytes = 8

let payload_off = header_bytes

type t = Bytes.t

let create () = Bytes.make size '\000'

let get_u8 = Bytes.get_uint8

let set_u8 = Bytes.set_uint8

let get_i32 p off = Int32.to_int (Bytes.get_int32_le p off)

let set_i32 p off v =
  if v > Int32.to_int Int32.max_int || v < Int32.to_int Int32.min_int then
    invalid_arg (Printf.sprintf "Page.set_i32: %d out of 32-bit range" v);
  Bytes.set_int32_le p off (Int32.of_int v)

(* {1 Checksum header: [0..3] payload CRC-32, [4] written flag, [5..7]
   reserved} *)

let checksum p = Crc32.digest p ~pos:payload_off ~len:(size - payload_off)

let stamp p =
  Bytes.set_int32_le p 0 (checksum p);
  set_u8 p 4 1

let all_zero p =
  let rec go i = i >= size || (Bytes.unsafe_get p i = '\000' && go (i + 1)) in
  go 0

let verify p =
  match get_u8 p 4 with
  | 1 -> if Bytes.get_int32_le p 0 = checksum p then `Ok else `Corrupt
  | 0 -> if all_zero p then `Fresh else `Corrupt
  | _ -> `Corrupt
