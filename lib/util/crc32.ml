(* CRC-32 with the reflected IEEE polynomial, the same checksum the
   zip/png family uses, computed by zlib's [crc32_z].  The register
   crosses the C boundary as an untagged native [int] holding the 32-bit
   state; [int32] appears only at the interface. *)

external crc32_z : (int[@untagged]) -> Bytes.t -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "hopi_crc32_update_byte" "hopi_crc32_update"
[@@noalloc]

let update crc buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then invalid_arg "Crc32.update";
  Int32.of_int (crc32_z (Int32.to_int crc land 0xFFFF_FFFF) buf pos len)

let digest buf ~pos ~len = update 0l buf ~pos ~len
