/* Adler-32 (RFC 1950), the checksum of every stable record and every
   frame on disk and on the wire.  Codec.adler32 checks the range and
   calls this kernel without allocating: the offset, the length and the
   sum cross as untagged ints, and the bytes are read in place.

   As in zlib, the sums are reduced once per block of at most NMAX
   bytes, the longest run over which b cannot outgrow 32 bits even at
   0xff per byte, and each block is summed sixteen bytes per step.  The
   values are zlib's. */

#include <stdint.h>
#include <caml/mlvalues.h>

#define ADLER_BASE 65521u
#define ADLER_NMAX 5552

#define DO1(i) a += p[i]; b += a
#define DO4(i) DO1(i); DO1(i + 1); DO1(i + 2); DO1(i + 3)
#define DO16 DO4(0); DO4(4); DO4(8); DO4(12)

intnat dynvote_codec_adler32(value bytes, intnat off, intnat len)
{
  const unsigned char *p = (const unsigned char *) Bytes_val(bytes) + off;
  uint32_t a = 1, b = 0;
  while (len > 0) {
    intnat n = len < ADLER_NMAX ? len : ADLER_NMAX;
    len -= n;
    for (; n >= 16; n -= 16, p += 16) {
      DO16;
    }
    for (; n > 0; n--, p++) {
      DO1(0);
    }
    a %= ADLER_BASE;
    b %= ADLER_BASE;
  }
  return (intnat) ((b << 16) | a);
}

/* The bytecode entry point: the same kernel over tagged ints. */
CAMLprim value dynvote_codec_adler32_byte(value bytes, value off, value len)
{
  return Val_long(dynvote_codec_adler32(bytes, Long_val(off), Long_val(len)));
}
