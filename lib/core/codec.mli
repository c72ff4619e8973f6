(** Stable-storage codec for the consistency-control ensemble.

    Compact, versioned, checksummed records: corrupted or torn data raises
    {!Corrupt} instead of being trusted — forgetting or garbling a
    partition set would break the protocol's safety argument. *)

exception Corrupt of string

val encoded_size : int
(** Fixed record size in bytes. *)

val encode_replica : Replica.t -> string

val decode_replica : string -> Replica.t
(** @raise Corrupt on wrong size, bad magic, checksum mismatch or
    out-of-range fields. *)

val decode_result : string -> (Replica.t, string) result
(** Total {!decode_replica}: never raises; [Error] carries the corruption
    reason.  Truncated, bit-flipped and zero-length records all return
    [Error]. *)

(** {2 Stable-storage building blocks}

    The write-then-rename-with-fsync discipline (the live service's rid
    sidecar and shard-log compactions use it), the write-through append
    its logs use, and the one record frame and log scan below, so every
    persistent artifact shares one durability story. *)

val write_through : Vfs.file -> string -> unit
(** Write every byte, looping over short writes, with no userland
    buffering: a process kill leaves at worst one partial frame at the
    end of a log.  Not fsynced. *)

val write_file_atomic : ?vfs:Vfs.t -> ?fsync:bool -> path:string -> string -> unit
(** Durable atomic replace: the bytes are written to [path ^ ".tmp"],
    fsynced, renamed over [path], and the parent directory is fsynced so
    the rename itself survives power loss.  After a crash at any point a
    reader finds either the complete previous content or the complete
    new one — never a torn or empty file.  (On filesystems that refuse
    directory fsync the rename is as durable as the platform allows.)
    [~fsync:false] keeps the write-then-rename atomicity (a reader never
    sees a torn file) but skips both fsyncs, trading the power-loss
    guarantee for speed — throughput experiments only.  Default [true].  [?vfs] (default
    {!Vfs.real}) is the storage seam every byte flows through — the
    fault-injection layer substitutes its own. *)

val read_file_result : ?vfs:Vfs.t -> path:string -> unit -> (string, string) result
(** Whole-file read; I/O failures come back as [Error]. *)

(** {2 Framed records}

    The live service's oplog, shard logs, rid sidecar and wire frames
    share one frame, [len:u32 | magic | adler32:u32 | fields]: [len]
    counts everything after itself, [magic] is four bytes naming the
    record family, and the Adler-32 checksum covers the fields.
    Integers are little-endian fixed width; keys carry a u16 length,
    values a u32 one.  Each family owns only its field layout. *)

val adler32 : Bytes.t -> off:int -> len:int -> int
(** The Adler-32 checksum (RFC 1950) of [len] bytes from [off], as the
    low 32 bits of an int: the checksum of every stable record and
    frame.  A C kernel sums the bytes in place and allocates nothing;
    the values are zlib's.
    @raise Invalid_argument when the range is not inside the bytes. *)

val max_frame : int
(** Upper bound on [len] a reader accepts (16 MiB). *)

val frame : ?length_prefix:bool -> magic:string -> (Buffer.t -> unit) -> string
(** [frame ~magic fill] is the frame whose fields [fill] appends, with
    its length and checksum filled in — one copy of the bytes, out of
    the buffer.  [~length_prefix:false] drops the [len] word, for a
    record that is a whole file (the file's size delimits it).
    [magic] must be four bytes. *)

val add_u8 : Buffer.t -> int -> unit
val add_u16 : Buffer.t -> int -> unit
val add_u32 : Buffer.t -> int -> unit
val add_u64 : Buffer.t -> int -> unit
val add_bool : Buffer.t -> bool -> unit
val add_site_set : Buffer.t -> Site_set.t -> unit

val add_key : Buffer.t -> string -> unit
(** u16 length, then the bytes.
    @raise Invalid_argument on a key longer than 65535 bytes. *)

val add_value : Buffer.t -> string -> unit
(** u32 length, then the bytes. *)

val add_value_opt : Buffer.t -> string option -> unit
(** u8 0 for [None]; u8 1 and {!add_value} for [Some]. *)

val add_pairs : Buffer.t -> (int * int) list -> unit
(** u32 count, then one (u32, u64) per pair — the applied-request
    tables of the shard logs and the wire. *)

type cursor
(** A bounds-checked reader over one frame's fields.  Every reader
    raises {!Corrupt} on a short record or an out-of-range field. *)

val open_frame : magic:string -> Bytes.t -> off:int -> len:int -> cursor
(** The frame whose [magic] starts at [off] (its [len] word, if any,
    already consumed): checks the magic and the checksum and returns a
    cursor at the first field.  @raise Corrupt otherwise. *)

val close_frame : cursor -> unit
(** @raise Corrupt unless every field byte was read. *)

val u8 : cursor -> int
val u16 : cursor -> int
val u32 : cursor -> int

val u64 : cursor -> int
(** Rejects values outside [0, max_int]. *)

val str : cursor -> int -> string

val skip : cursor -> int -> unit
(** Step over [len] bytes without copying them; the same bounds check
    as {!str}. *)

val bool : cursor -> bool
val key : cursor -> string
val value : cursor -> string
val value_opt : cursor -> string option

val value_bytes : cursor -> head:int -> Bytes.t
(** A value read as {!value} reads it, into a fresh buffer after [head]
    bytes the caller fills: a value copied once, straight out of the
    frame into the record that keeps it. *)

val site_set : cursor -> Site_set.t
(** A u64 mask; bits outside the [Site_set.max_sites] universe are
    rejected. *)

val replica : cursor -> Replica.t
(** A {!encoded_size}-byte stable record, decoded in place.
    @raise Corrupt ["truncated"] when the frame is short, and
    ["bad replica: "] followed by {!decode_replica}'s reason when the
    record is bad. *)

val pairs : cursor -> (int * int) list

(** {2 Log scan} *)

type 'a scan = {
  folded : 'a;  (** the fold over every intact frame, in file order *)
  torn : bool;
      (** the log ends in bad or partial frames — what an honest crash
          leaves — and they were dropped *)
  corrupt : int;
      (** bad frames {e followed by an intact one}: a hole in the middle
          of the history that no crash explains.  Recovery must not
          trust a site whose log shows these *)
  valid_prefix : int;
      (** byte length of the damage-free prefix: every frame before the
          first bad one *)
}

val scan_log :
  ?vfs:Vfs.t ->
  ?cut_torn_tail:bool ->
  path:string ->
  magic:string ->
  decode:(cursor -> 'r) ->
  ('a -> 'r -> 'a) ->
  'a ->
  ('a scan, string) result
(** [scan_log ~path ~magic ~decode f init] reads the whole log at [path]
    and folds [f] from [init] over the records [decode] reads from its
    intact frames.  A frame whose length is plausible but
    whose magic, checksum or fields are bad is skipped and the scan
    resumes after it; an implausible length ends the scan as a torn
    tail.  With [~cut_torn_tail:true] (default [false]) a torn log with
    no corruption is cut back to [valid_prefix] — appending past a
    partial frame would make the new records read as corruption — while
    a corrupt log is left untouched as evidence.  [Error] when the file
    cannot be read (missing, or an I/O error); each caller decides what
    that means. *)

val scan_data :
  ?vfs:Vfs.t ->
  ?cut_torn_tail:bool ->
  path:string ->
  magic:string ->
  decode:(cursor -> 'r) ->
  ('a -> 'r -> 'a) ->
  'a ->
  string ->
  'a scan
(** {!scan_log} over [data], the log at [path] already read (by
    {!read_file_result}): for a caller that sizes its tables from the
    log's length before the fold.  [path] is used only to cut a torn
    tail. *)
