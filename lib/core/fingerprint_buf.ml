(* The canonical writer behind state fingerprints: a buffer plus the
   canonicalization every field passes through on its way in — a site
   relabeling (symmetry reduction), rebased operation and version
   counters, and first-occurrence renaming of content strings.  The
   model checker writes one fingerprint per transition, so nothing here
   allocates per field.

   Integers are zigzag-encoded: small magnitudes of either sign map onto
   small naturals, which then fit a single byte almost always
   (fingerprint fields are tiny: rebased counters, rename ids, site ids,
   partition masks).  The escape byte 0xff introduces a fixed eight-byte
   little-endian tail, so decoding never needs look-ahead and no
   separator bytes are required — callers length-prefix variable-length
   sections instead. *)

type t = {
  buf : Buffer.t;
  perm : int array;  (* site -> canonical site *)
  inverse : int array;  (* canonical site -> site *)
  identity : bool;
  o_base : int;
  v_base : int;
  mutable names : string list;  (* contents renamed so far, newest first *)
  mutable named : int;
}

let create buf ~perm ~o_base ~v_base =
  Buffer.clear buf;
  let identity = ref true in
  for s = 0 to Array.length perm - 1 do
    if perm.(s) <> s then identity := false
  done;
  let inverse =
    if !identity then perm
    else begin
      let inverse = Array.make (Array.length perm) 0 in
      Array.iteri (fun s c -> inverse.(c) <- s) perm;
      inverse
    end
  in
  { buf; perm; inverse; identity = !identity; o_base; v_base; names = []; named = 0 }

let escaped buf z =
  Buffer.add_char buf '\255';
  for i = 0 to 7 do
    Buffer.add_char buf (Char.unsafe_chr ((z lsr (8 * i)) land 0xff))
  done

let int t n =
  let z = (n lsl 1) lxor (n asr 62) in
  if z >= 0 && z < 255 then Buffer.add_char t.buf (Char.unsafe_chr z) else escaped t.buf z

let op t o = int t (o - t.o_base)
let version t v = int t (v - t.v_base)
let identity t = t.identity
let sites t = Array.length t.perm
let site_at t c = t.inverse.(c)

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

(* The id of [s] among [names] (newest first, the newest holding id
   [i]), or -1. *)
let rec name_id s i = function
  | [] -> -1
  | name :: older -> if String.equal name s then i else name_id s (i - 1) older

let content t s =
  let id = name_id s (t.named - 1) t.names in
  if id >= 0 then int t id
  else begin
    t.names <- s :: t.names;
    int t t.named;
    t.named <- t.named + 1
  end
