/* CRC-32 through zlib's crc32_z: the reflected IEEE polynomial, so the
   values are those of the classic table-driven CRC-32. */

#define CAML_NAME_SPACE
#include <zlib.h>
#include <caml/mlvalues.h>

/* native code: untagged register, offset and length; the caller has
   checked the range, and nothing here allocates or releases the runtime
   lock */
intnat hopi_crc32_update(intnat crc, value buf, intnat pos, intnat len)
{
  return (intnat) crc32_z((uLong) crc, (const Bytef *) Bytes_val(buf) + pos, (z_size_t) len);
}

value hopi_crc32_update_byte(value crc, value buf, value pos, value len)
{
  return Val_long(hopi_crc32_update(Long_val(crc), buf, Long_val(pos), Long_val(len)));
}
