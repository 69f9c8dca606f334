/* One positioned read, which OCaml 5.1's Unix library lacks.  Like
   Unix.read, it reads into a stack buffer with the runtime lock released
   (the heap may move the OCaml buffer meanwhile) and copies the bytes
   into place afterwards; unlike lseek + read, it leaves the descriptor's
   file offset alone, so several domains may read one descriptor at
   once. */

#define CAML_NAME_SPACE
#include <string.h>
#include <unistd.h>
#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

CAMLprim value hopi_vfs_pread(value fd, value buf, value pos, value len, value off)
{
  CAMLparam1(buf);
  char iobuf[UNIX_BUFFER_SIZE];
  size_t n = Long_val(len);
  ssize_t got;
  if (n > UNIX_BUFFER_SIZE) n = UNIX_BUFFER_SIZE;
  caml_enter_blocking_section();
  got = pread(Int_val(fd), iobuf, n, (off_t) Long_val(off));
  caml_leave_blocking_section();
  if (got == -1) caml_uerror("pread", Nothing);
  memcpy(&Byte(buf, Long_val(pos)), iobuf, got);
  CAMLreturn(Val_long(got));
}
