(* The canonical writer behind state fingerprints: the canonicalization
   every field passes through on its way in — a site relabeling
   (symmetry reduction), rebased operation and version counters, a floor
   below which operation numbers are dead, and first-occurrence renaming
   of content strings — and the hash of the bytes that come out.  The
   model checker hashes one state per transition through one writer per
   worker, reset for each state, so nothing here allocates per field or
   per state once the writer's arrays have grown to fit.

   Integers are zigzag-encoded: small magnitudes of either sign map onto
   small naturals, which then fit a single byte almost always
   (fingerprint fields are tiny: rebased counters, rename ids, site ids,
   partition masks).  The escape byte 0xff introduces a fixed eight-byte
   little-endian tail, so decoding never needs look-ahead and no
   separator bytes are required — callers length-prefix variable-length
   sections instead.

   Every byte is folded into an FNV-1a accumulator as it is emitted, and
   {!hash} finishes it with a splitmix-style finalizer (constants
   adjusted to OCaml's 63-bit int literals — the avalanche is what
   matters, not the named constants).  The same fold over a string is
   {!hash_string}, so a writer's hash is the hash of the bytes it would
   have stored.  A writer created with [~keep:false] stores nothing. *)

let fnv_seed = 0x27d4eb2f165667c5
let fnv_prime = 0x100000001b3

let finish h =
  let h = (h lxor (h lsr 30)) * 0x2545F4914F6CDD1D in
  let h = (h lxor (h lsr 27)) * 0x369DEA0F31A53F85 in
  let h = (h lxor (h lsr 31)) land max_int in
  if h = 0 then 1 else h

let hash_string s =
  finish (String.fold_left (fun h c -> (h lxor Char.code c) * fnv_prime) fnv_seed s)

type t = {
  keep : bool;
  mutable bytes : Bytes.t;  (* the first [len] bytes, when [keep] *)
  mutable len : int;
  mutable h : int;  (* FNV-1a over every byte emitted since the reset *)
  mutable perm : int array;  (* site -> canonical site *)
  mutable inverse : int array;  (* canonical site -> site *)
  mutable identity : bool;
  mutable o_base : int;
  mutable v_base : int;
  mutable op_floor : int;
  mutable live : int;  (* live operation numbers counted by [count_live] *)
  mutable names : string array;  (* contents renamed so far, id order *)
  mutable named : int;
}

let create ~keep () =
  {
    keep;
    bytes = Bytes.create (if keep then 256 else 0);
    len = 0;
    h = fnv_seed;
    perm = [||];
    inverse = [||];
    identity = true;
    o_base = 0;
    v_base = 0;
    op_floor = 0;
    live = 0;
    names = Array.make 8 "";
    named = 0;
  }

let reset t ~perm ~o_base ~v_base ~op_floor =
  t.len <- 0;
  t.h <- fnv_seed;
  t.perm <- perm;
  let n = Array.length perm in
  if Array.length t.inverse <> n then t.inverse <- Array.make n 0;
  let identity = ref true in
  for s = 0 to n - 1 do
    let c = Array.unsafe_get perm s in
    if c <> s then identity := false;
    t.inverse.(c) <- s
  done;
  t.identity <- !identity;
  t.o_base <- o_base;
  t.v_base <- v_base;
  t.op_floor <- op_floor;
  t.live <- 0;
  t.named <- 0

let byte t b =
  t.h <- (t.h lxor b) * fnv_prime;
  if t.keep then begin
    if t.len = Bytes.length t.bytes then begin
      let grown = Bytes.create (2 * t.len) in
      Bytes.blit t.bytes 0 grown 0 t.len;
      t.bytes <- grown
    end;
    Bytes.unsafe_set t.bytes t.len (Char.unsafe_chr b);
    t.len <- t.len + 1
  end

let escaped t z =
  byte t 0xff;
  for i = 0 to 7 do
    byte t ((z lsr (8 * i)) land 0xff)
  done

let int t n =
  let z = (n lsl 1) lxor (n asr 62) in
  if z >= 0 && z < 255 then byte t z else escaped t z

let op t o = int t (o - t.o_base)
let version t v = int t (v - t.v_base)
let identity t = t.identity
let sites t = Array.length t.perm
let site_at t c = t.inverse.(c)
let live_op t o = o >= t.op_floor
let count_live t o = if o >= t.op_floor then t.live <- t.live + 1

let live_count t =
  let n = t.live in
  t.live <- 0;
  n

let image t set =
  let mask = Site_set.to_int set in
  if t.identity then mask
  else begin
    let rest = ref mask and image = ref 0 and site = ref 0 in
    while !rest <> 0 do
      if !rest land 1 = 1 then image := !image lor (1 lsl t.perm.(!site));
      rest := !rest lsr 1;
      incr site
    done;
    !image
  end

let set t s = int t (image t s)

(* The id of [s] among the first [n] names, or -1. *)
let rec name_id names s i n =
  if i = n then -1 else if String.equal names.(i) s then i else name_id names s (i + 1) n

let content t s =
  let id = name_id t.names s 0 t.named in
  if id >= 0 then int t id
  else begin
    if t.named = Array.length t.names then begin
      let grown = Array.make (2 * t.named) "" in
      Array.blit t.names 0 grown 0 t.named;
      t.names <- grown
    end;
    t.names.(t.named) <- s;
    int t t.named;
    t.named <- t.named + 1
  end

let hash t = finish t.h

let contents t =
  if not t.keep then invalid_arg "Fingerprint_buf.contents: the writer keeps no bytes";
  Bytes.sub_string t.bytes 0 t.len

(* Byte-wise from [i], then the shorter first: String.compare's order. *)
let rec compare_from a b i =
  if i = a.len || i = b.len then Int.compare a.len b.len
  else
    let d = Char.code (Bytes.unsafe_get a.bytes i) - Char.code (Bytes.unsafe_get b.bytes i) in
    if d <> 0 then d else compare_from a b (i + 1)

let compare a b =
  if not (a.keep && b.keep) then invalid_arg "Fingerprint_buf.compare: a writer keeps no bytes";
  compare_from a b 0
