(** Log-structured per-key persistence for the sharded object space.

    One site's million keys live in a fixed set of append-only shard
    logs ([shards/shard-<i>.dvl] under the site directory); a key's
    shard is a stable hash of its bytes.  Each committed record carries
    the key's full consistency state — operation number, ensemble
    version, partition, data version — plus the value bytes when they
    changed and the request id that produced them, framed and
    checksummed by {!Dynvote.Codec.frame} like the oplog, so a torn tail
    is detected and dropped rather than trusted.

    In memory the store keeps a {e spine}: one packed (undecoded) blob
    per key holding the latest state.  Decoding is the resident layer's
    job ({!Shard_map}); the spine itself is what bounds recovery — a
    boot folds every shard log once and is done.

    When a shard log holds many times more records than live keys it is
    {e compacted}: rewritten atomically with only the latest record per
    key, prefixed by a summary of the per-client applied-request table
    so exactly-once memory survives the dropped history. *)

type state = {
  op_no : int;
  version : int;  (** ensemble version *)
  partition : Site_set.t;
  data_version : int;
      (** version at which [value] was last installed; trails [version]
          at a site whose ensemble advanced without a data fetch *)
  value : string option;  (** [None]: never written *)
}

type scan_info = {
  keys : int;  (** distinct keys recovered into the spine *)
  torn_shards : int;
      (** shard logs that ended in bad or partial frames (honest crash
          damage); a torn log with no corruption had its tail cut before
          reopening *)
  corrupt : int;
      (** bad records with an intact record after them, across all
          shards — damage no crash explains, by {!Codec.scan_log}'s rule
          (one such record is enough); the logs are left untouched and
          the caller should fence *)
  unreadable : int;
      (** shard logs (or the rid sidecar) that exist but could not be
          read: their history is lost, not empty, so the caller must not
          present those keys as initial *)
  rids : (int * int) list;
      (** the recovered per-client applied-request table: the max
          request number folded over every record's rid, every
          compaction summary, and the rid sidecar file *)
}

type t

val open_store :
  ?vfs:Vfs.t -> ?durable:bool -> dir:string -> site:Site_set.site ->
  shards:int -> unit -> t * scan_info
(** Scan (or create) the site's shard logs under
    [dir/site-<site>/shards].  [durable] (default [true]) makes
    {!save_rids} fsync by default.  Compaction rewrites always fsync —
    they replace the only copy of the key history, and an unsynced
    rename promoted by any later directory fsync would leave the log
    durably empty.  @raise Invalid_argument when [shards < 1]. *)

val shard_count : t -> int
val key_count : t -> int  (** spine size: distinct keys ever committed *)

val lookup : t -> string -> state option
(** Decode the spine's latest record for a key; [None] if the key was
    never committed at this site. *)

val commit : t -> key:string -> rid:int -> state -> unit
(** Append the record to the key's shard log (write-through, not
    fsynced — see {!fsync}) and update the spine.  Value bytes equal to
    the spine's current value are encoded as "unchanged" so read
    commits stay small.  May trigger a compaction of that shard.
    Raises {!Vfs.Fault} / {!Vfs.Crash_point} like any storage write. *)

val fsync : t -> unit
(** Fsync every shard log appended to since the last call — one batch
    of commits, one fsync sweep. *)

val save_rids : ?fsync:bool -> t -> (int * int) list -> unit
(** Merge [(client, req)] pairs into the store's applied-request table
    and persist the merged table to the [rids.dvr] sidecar (atomic
    replace).  Called when a data fetch imports another site's table:
    rids learned any other way already ride inside commit records. *)

val rid_list : t -> (int * int) list

val iter : t -> (string -> state -> unit) -> unit
(** Every key's latest state, decoded from the spine (unspecified
    order). *)

val compactions : t -> int
val log_records : t -> int
(** Records appended across all shards since open (compaction resets a
    shard's count to its live keys). *)

val close : t -> unit

val shards_dir : dir:string -> site:Site_set.site -> string

val read_states : dir:string -> site:Site_set.site -> (string * state) list * int
(** Offline replay of a site's shard logs (no store open, real
    filesystem, nothing cut): the audit's view of the final per-key
    states, with the number of mid-log corrupt records the scan skipped.
    Torn tails are tolerated. *)
