(* Adler-32 as the tree summed it before the loop moved into a C kernel
   (lib/core/codec_stubs.c): the sums reduced once per block of at most
   5,552 bytes, in OCaml.  It is kept, verbatim, as the reference
   [test codec] compares {!Codec.adler32} against on random bytes,
   offsets and lengths: the kernel must give the same value. *)

let adler_base = 65521
let adler_nmax = 5552

let adler32 bytes ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length bytes - len then
    invalid_arg "Codec.adler32";
  let a = ref 1 and b = ref 0 in
  let pos = ref off and stop = off + len in
  while !pos < stop do
    let block_end = min stop (!pos + adler_nmax) in
    for i = !pos to block_end - 1 do
      a := !a + Char.code (Bytes.unsafe_get bytes i);
      b := !b + !a
    done;
    a := !a mod adler_base;
    b := !b mod adler_base;
    pos := block_end
  done;
  (!b lsl 16) lor !a
