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

(* Adler-32 (RFC 1950): simple, fast, adequate for torn-write detection.
   The summing loop is a C kernel (codec_stubs.c, zlib's blocking) that
   reads the bytes in place and allocates nothing; the one bounds check
   stays here and covers every byte of the range.  The sum is returned
   as the low 32 bits of an int, so a caller stores or compares it
   without boxing an [Int32.t]. *)
external adler32_unchecked :
  Bytes.t -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "dynvote_codec_adler32_byte" "dynvote_codec_adler32"
[@@noalloc]

let adler32 bytes ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length bytes - len then
    invalid_arg "Codec.adler32";
  adler32_unchecked bytes off len

let encode_replica replica =
  let buffer = Bytes.create encoded_size in
  Bytes.blit_string magic 0 buffer 0 4;
  Bytes.set_int64_le buffer 8 (Int64.of_int (Replica.op_no replica));
  Bytes.set_int64_le buffer 16 (Int64.of_int (Replica.version replica));
  Bytes.set_int64_le buffer 24 (Int64.of_int (Site_set.to_int (Replica.partition replica)));
  (* Checksum over the payload (everything after the checksum field). *)
  Bytes.set_int32_le buffer 4 (Int32.of_int (adler32 buffer ~off:8 ~len:(encoded_size - 8)));
  (* The buffer never escapes, so it becomes the string without a copy. *)
  Bytes.unsafe_to_string buffer

(* The one replica decoder, reading the [encoded_size] bytes at [off] in
   place: a stable record, a wire field and the checker's stale records
   all come through here without a copy.  The caller has checked that
   the bytes are there. *)
let replica_at buffer off =
  if not (Int32.equal (Bytes.get_int32_le buffer off) (String.get_int32_le magic 0)) then
    raise (Corrupt "bad magic");
  let stored = Bytes.get_int32_le buffer (off + 4) in
  let computed = adler32 buffer ~off:(off + 8) ~len:(encoded_size - 8) in
  if not (Int32.equal stored (Int32.of_int computed)) then
    raise (Corrupt "checksum mismatch");
  let read_int field =
    let v = Bytes.get_int64_le buffer (off + field) in
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

let decode_replica data =
  if String.length data <> encoded_size then
    raise (Corrupt (Printf.sprintf "expected %d bytes, got %d" encoded_size
                      (String.length data)));
  replica_at (Bytes.unsafe_of_string data) 0

(* Total variants: corruption as data, not control flow.  Recovery code
   paths (and fuzzers) want to inspect a bad record without wrapping every
   call in an exception handler. *)
let decode_result data =
  match decode_replica data with
  | replica -> Ok replica
  | exception Corrupt reason -> Error reason

(* Write every byte, looping over short writes, straight to the vfs
   (no userland buffering): a process kill leaves at worst one partial
   frame at the end of a log. *)
let write_through (file : Vfs.file) data =
  let bytes = Bytes.unsafe_of_string data in
  let len = Bytes.length bytes in
  let written = ref 0 in
  while !written < len do
    written := !written + file.Vfs.write bytes !written (len - !written)
  done

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
      write_through file data;
      if fsync then file.Vfs.fsync ());
  vfs.Vfs.rename ~src:tmp ~dst:path;
  if fsync then vfs.Vfs.fsync_dir (Filename.dirname path)

let read_file_result ?(vfs = Vfs.real) ~path () =
  match vfs.Vfs.read path with
  | data -> Ok data
  | exception Sys_error reason -> Error reason

(* --- framed records ---------------------------------------------------

   The live service's oplog, shard logs, rid sidecar and wire frames all
   share one frame:

       len:u32 | magic (4 bytes) | adler32:u32 | fields

   [len] counts everything after itself and the checksum covers the
   fields, so a torn or bit-flipped record is detected rather than
   trusted.  Integers are little-endian fixed width; strings carry a u16
   (keys) or u32 (values) length. *)

let max_frame = 16 * 1024 * 1024

let frame ?(length_prefix = true) ~magic fill =
  let b = Buffer.create 128 in
  if length_prefix then Buffer.add_int32_le b 0l;
  Buffer.add_string b magic;
  Buffer.add_int32_le b 0l;
  fill b;
  (* The one copy: the buffer's bytes become the frame, and the length
     and checksum slots are patched in place. *)
  let frame = Buffer.to_bytes b in
  let off = if length_prefix then 4 else 0 in
  let len = Bytes.length frame - off in
  if length_prefix then Bytes.set_int32_le frame 0 (Int32.of_int len);
  Bytes.set_int32_le frame (off + 4)
    (Int32.of_int (adler32 frame ~off:(off + 8) ~len:(len - 8)));
  Bytes.unsafe_to_string frame

let add_u8 b v = Buffer.add_char b (Char.unsafe_chr (v land 0xff))
let add_u16 b v = Buffer.add_uint16_le b v
let add_u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let add_u64 b v = Buffer.add_int64_le b (Int64.of_int v)
let add_bool b v = add_u8 b (if v then 1 else 0)
let add_site_set b s = add_u64 b (Site_set.to_int s)

let add_key b k =
  if String.length k > 0xffff then invalid_arg "Codec: key longer than 65535 bytes";
  add_u16 b (String.length k);
  Buffer.add_string b k

let add_value b v =
  add_u32 b (String.length v);
  Buffer.add_string b v

let add_value_opt b = function
  | None -> add_u8 b 0
  | Some v ->
      add_u8 b 1;
      add_value b v

let add_pairs b pairs =
  add_u32 b (List.length pairs);
  List.iter
    (fun (client, req) ->
      add_u32 b client;
      add_u64 b req)
    pairs

(* A bounds-checked cursor over one frame's fields: a lying length or a
   short record raises [Corrupt], never an exception from [Bytes]. *)
type cursor = { data : Bytes.t; mutable pos : int; stop : int }

let open_frame ~magic data ~off ~len =
  if len < 8 || off < 0 || off + len > Bytes.length data then
    raise (Corrupt "truncated");
  if not (Int32.equal (Bytes.get_int32_le data off) (String.get_int32_le magic 0)) then
    raise (Corrupt "bad magic");
  if not (Int32.equal (Bytes.get_int32_le data (off + 4))
            (Int32.of_int (adler32 data ~off:(off + 8) ~len:(len - 8))))
  then raise (Corrupt "checksum mismatch");
  { data; pos = off + 8; stop = off + len }

let close_frame c = if c.pos <> c.stop then raise (Corrupt "trailing garbage")

let need c n = if n > c.stop - c.pos then raise (Corrupt "truncated")

let u8 c =
  need c 1;
  let v = Char.code (Bytes.get c.data c.pos) in
  c.pos <- c.pos + 1;
  v

let u16 c =
  need c 2;
  let v = Bytes.get_uint16_le c.data c.pos in
  c.pos <- c.pos + 2;
  v

let u32 c =
  need c 4;
  let v = Int32.to_int (Bytes.get_int32_le c.data c.pos) land 0xFFFFFFFF in
  c.pos <- c.pos + 4;
  v

let u64 c =
  need c 8;
  let v = Bytes.get_int64_le c.data c.pos in
  c.pos <- c.pos + 8;
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
    raise (Corrupt "field out of range");
  Int64.to_int v

let str c len =
  need c len;
  let s = Bytes.sub_string c.data c.pos len in
  c.pos <- c.pos + len;
  s

let value_bytes c ~head =
  let len = u32 c in
  need c len;
  let b = Bytes.create (head + len) in
  Bytes.blit c.data c.pos b head len;
  c.pos <- c.pos + len;
  b

let skip c len =
  need c len;
  c.pos <- c.pos + len

let bool c = match u8 c with 0 -> false | 1 -> true | _ -> raise (Corrupt "bad boolean")
let key c = str c (u16 c)
let value c = Bytes.unsafe_to_string (value_bytes c ~head:0)

let value_opt c =
  match u8 c with 0 -> None | 1 -> Some (value c) | _ -> raise (Corrupt "bad value flag")

let site_set c =
  let mask = u64 c in
  if mask land lnot (Site_set.to_int (Site_set.universe Site_set.max_sites)) <> 0 then
    raise (Corrupt "partition mask has illegal bits");
  Site_set.of_int_unsafe mask

let replica c =
  need c encoded_size;
  let r =
    try replica_at c.data c.pos
    with Corrupt reason -> raise (Corrupt ("bad replica: " ^ reason))
  in
  c.pos <- c.pos + encoded_size;
  r

let pairs c =
  let n = u32 c in
  (* Each pair is 12 bytes: a count the record cannot hold is a lie. *)
  if n > (c.stop - c.pos) / 12 then raise (Corrupt "pair count out of range");
  List.init n (fun _ ->
      let client = u32 c in
      (client, u64 c))

(* --- log scan ---------------------------------------------------------

   A killed writer leaves at worst one partial frame at the end of a
   log: that is the only damage an honest crash produces, and a scan
   drops it as the [torn] tail.  A bad frame {e followed by an intact
   one} is a different animal: the log kept growing past the damage, so
   bytes were altered in place (bit rot, a lying disk) and the history
   has a hole.  Those frames are counted in [corrupt] so recovery can
   refuse to trust the site instead of replaying around the gap.

   A frame whose length prefix is plausible is skipped when its fields
   are bad and scanning resumes at the next one; an implausible length
   ends the scan as a torn tail (resynchronising would mean trusting
   damaged bytes). *)

type 'a scan = { folded : 'a; torn : bool; corrupt : int; valid_prefix : int }

let scan_data ?(vfs = Vfs.real) ?(cut_torn_tail = false) ~path ~magic ~decode f init data =
  let raw = Bytes.unsafe_of_string data in
  let total = Bytes.length raw in
  (* [pending]: bad frames since the last intact one — corruption if
     an intact frame follows, the torn tail otherwise.
     [valid_prefix]: the end of the last intact frame before the
     first bad one. *)
  let rec go acc pos ~pending ~corrupt ~valid_prefix =
    let len =
      if pos + 4 > total then -1
      else Int32.to_int (Bytes.get_int32_le raw pos) land 0xFFFFFFFF
    in
    if len <= 0 || len > max_frame || len > total - pos - 4 then
      {
        folded = acc;
        torn = pos < total || pending > 0;
        corrupt;
        valid_prefix;
      }
    else
      let next = pos + 4 + len in
      match
        let c = open_frame ~magic raw ~off:(pos + 4) ~len in
        let record = decode c in
        close_frame c;
        record
      with
      | record ->
          go (f acc record) next ~pending:0 ~corrupt:(corrupt + pending)
            ~valid_prefix:(if corrupt + pending = 0 then next else valid_prefix)
      | exception Corrupt _ ->
          go acc next ~pending:(pending + 1) ~corrupt ~valid_prefix
  in
  let scan = go init 0 ~pending:0 ~corrupt:0 ~valid_prefix:0 in
  (* Appending past a partial frame would leave the new records
     unreadable — mid-log corruption to the next scan — so a purely
     torn log is cut back first.  A corrupt log is evidence and is
     left alone. *)
  if cut_torn_tail && scan.torn && scan.corrupt = 0 then
    vfs.Vfs.truncate path scan.valid_prefix;
  scan

let scan_log ?vfs ?cut_torn_tail ~path ~magic ~decode f init =
  match read_file_result ?vfs ~path () with
  | Error _ as unreadable -> unreadable
  | Ok data -> Ok (scan_data ?vfs ?cut_torn_tail ~path ~magic ~decode f init data)
