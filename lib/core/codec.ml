(* Stable-storage representation of the consistency-control ensemble.

   The protocols require each site to persist (operation number, version
   number, partition set) across crashes — a copy that forgot its
   partition set could neither vote nor recover safely.  This codec gives
   the ensemble a compact, versioned, checksummed on-disk form:

       magic "DVT1" | adler32 | op_no | version | partition bitmask

   Integers are little-endian fixed-width; the checksum covers everything
   after itself, so torn or corrupted records are detected rather than
   trusted. *)

let magic = "DVT1"

let encoded_size = 4 + 4 + 8 + 8 + 8

exception Corrupt of string

(* Adler-32 (RFC 1950): simple, fast, adequate for torn-write detection. *)
let adler32 bytes ~off ~len =
  let modulus = 65521 in
  let a = ref 1 and b = ref 0 in
  for i = off to off + len - 1 do
    a := (!a + Char.code (Bytes.get bytes i)) mod modulus;
    b := (!b + !a) mod modulus
  done;
  Int32.logor
    (Int32.shift_left (Int32.of_int !b) 16)
    (Int32.of_int !a)

let encode_replica replica =
  let buffer = Bytes.create encoded_size in
  Bytes.blit_string magic 0 buffer 0 4;
  Bytes.set_int64_le buffer 8 (Int64.of_int (Replica.op_no replica));
  Bytes.set_int64_le buffer 16 (Int64.of_int (Replica.version replica));
  Bytes.set_int64_le buffer 24 (Int64.of_int (Site_set.to_int (Replica.partition replica)));
  (* Checksum over the payload (everything after the checksum field). *)
  Bytes.set_int32_le buffer 4 (adler32 buffer ~off:8 ~len:(encoded_size - 8));
  Bytes.to_string buffer

let decode_replica data =
  if String.length data <> encoded_size then
    raise (Corrupt (Printf.sprintf "expected %d bytes, got %d" encoded_size
                      (String.length data)));
  let buffer = Bytes.of_string data in
  if Bytes.sub_string buffer 0 4 <> magic then raise (Corrupt "bad magic");
  let stored = Bytes.get_int32_le buffer 4 in
  let computed = adler32 buffer ~off:8 ~len:(encoded_size - 8) in
  if not (Int32.equal stored computed) then raise (Corrupt "checksum mismatch");
  let read_int offset =
    let v = Bytes.get_int64_le buffer offset in
    if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
      raise (Corrupt "field out of range");
    Int64.to_int v
  in
  let op_no = read_int 8 in
  let version = read_int 16 in
  let mask = read_int 24 in
  if mask land lnot (Site_set.to_int (Site_set.universe Site_set.max_sites)) <> 0 then
    raise (Corrupt "partition mask has illegal bits");
  Replica.make ~op_no ~version ~partition:(Site_set.of_int_unsafe mask)

(* Total variants: corruption as data, not control flow.  Recovery code
   paths (and fuzzers) want to inspect a bad record without wrapping every
   call in an exception handler. *)
let decode_result data =
  match decode_replica data with
  | replica -> Ok replica
  | exception Corrupt reason -> Error reason

let checksum = adler32

(* Durable atomic replace.  Write-then-rename alone is atomic with
   respect to crashes of the *writer*, but not to power loss: the rename
   can reach the journal while the temp file's bytes are still in the
   page cache, leaving a zero-length or torn file after the crash.  The
   full discipline is: flush the data (fsync the temp file), then make
   the name switch durable (fsync the containing directory after the
   rename).  A crash at any point leaves either the complete old record
   or the complete new one.

   Every storage call goes through [vfs] so a fault-injecting
   implementation can strike any single operation of the discipline. *)
let write_file_atomic ?(vfs = Vfs.real) ?(fsync = true) ~path data =
  let tmp = path ^ ".tmp" in
  let file = vfs.Vfs.create tmp in
  Fun.protect
    ~finally:(fun () -> file.Vfs.close ())
    (fun () ->
      let bytes = Bytes.unsafe_of_string data in
      let len = Bytes.length bytes in
      let written = ref 0 in
      while !written < len do
        written := !written + file.Vfs.write bytes !written (len - !written)
      done;
      if fsync then file.Vfs.fsync ());
  vfs.Vfs.rename ~src:tmp ~dst:path;
  if fsync then vfs.Vfs.fsync_dir (Filename.dirname path)

let read_file_result ?(vfs = Vfs.real) ~path () =
  match vfs.Vfs.read path with
  | data -> Ok data
  | exception Sys_error reason -> Error reason
