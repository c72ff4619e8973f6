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
    sidecar and shard-log compactions use it) and the checksum its logs
    frame records with, so every persistent artifact shares one
    durability story. *)

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

val checksum : Bytes.t -> off:int -> len:int -> int32
(** The codec's Adler-32 (RFC 1950) checksum, for records framed in this
    codec's style. *)
