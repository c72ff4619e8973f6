(** Per-site operation log of the live service: [oplog.dvl], an
    append-only log of every commit this node applied, every write
    intent and every client-visible outcome it coordinated, framed and
    checksummed per record.  The merged logs of all nodes replay through
    the chaos {!Dynvote_chaos.Oracle}.  The objects themselves — their
    (o, v, P) ensembles and values — live in the site's shard logs
    ({!Dynvote_shard.Shard_store}).

    Every byte flows through a {!Dynvote.Vfs} ([Vfs.real] by default),
    so the fault-injection filesystem can strike any single operation. *)

val site_dir : dir:string -> Site_set.site -> string
val ensure_site_dir : dir:string -> Site_set.site -> string
val oplog_path : dir:string -> Site_set.site -> string

(** {2 Operation log} *)

(** Every record names the object it belongs to: a client key, or at
    [--shards 0] the one object holding the whole map. *)
type record =
  | Log_kcommit of {
      seq : int;
      key : string;
      op_no : int;
      version : int;
      partition : Site_set.t;
      rid : int;  (** request id the commit applied, 0 if none *)
    }
      (** this node applied a commit (site is implied by whose log it
          is).  The value bytes live in the shard logs — this record is
          the audit journal's view of the consistency event *)
  | Log_kintent of { seq : int; key : string; content : string }
      (** a write coordinator is about to distribute COMMITs installing
          [content]; an intent with no later outcome marks a coordinator
          killed mid-wave *)
  | Log_koutcome of {
      seq : int;
      key : string;
      kind : [ `Read | `Write | `Recover ];
      granted : bool;
      content : string option;
          (** the object content the operation served (granted reads) or
              installed (granted writes) *)
      rid : int;  (** request id the outcome answered, 0 if none *)
    }

val seq_of : record -> int

type log
(** An open append channel over a {!Dynvote.Vfs}. *)

val open_log : ?vfs:Vfs.t -> path:string -> unit -> log
val log_path : log -> string

val append : log -> record -> unit
(** Framed, checksummed, written through in full (no userland
    buffering).  Appends are not fsynced; a power cut may truncate the
    unsynced suffix, which replay tolerates as a torn tail. *)

val close_log : log -> unit

val scan_log :
  ?vfs:Vfs.t -> ?cut_torn_tail:bool -> path:string -> ('a -> record -> 'a) -> 'a ->
  'a Codec.scan
(** Fold the log's intact records in file order, by {!Codec.scan_log}'s
    torn-versus-corrupt rule ([~cut_torn_tail:true] when the log is
    about to be reopened for append).  A missing or unreadable oplog is
    an empty scan: the objects themselves live in the shard logs. *)
