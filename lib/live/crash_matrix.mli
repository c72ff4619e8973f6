(** The crash-point recovery matrix: for every stable-storage operation
    a commit performs (the {e persist points}) crossed with every
    {!Dynvote_chaos.Fault_plan.Storage.fault} class, run a small live
    cluster, strike a victim site at exactly that point, power-cut it
    (via {!Dynvote_faultfs.Faultfs.simulate_crash}), restart it, and
    grade the result.

    The contract under test: a storage fault may cost the victim its
    service ({!Fenced}) or some recovery time ({!Recovered}), but never
    the cluster's availability ({!Unavailable}) and never silently
    corrupted history ({!Corrupt}) — every cell must end green or
    explicitly fenced. *)

module Storage = Dynvote_chaos.Fault_plan.Storage

type point = { p_file : Storage.file_class; p_op : Storage.op; p_compaction : bool }
(** One stable-storage operation: of the commit path, or of the shard
    store's compaction rewrite when [p_compaction]. *)

val points : point list
(** The seven commit-path persist points: the shard-log append and its
    batch fsync, {write, fsync, rename, fsync-dir} of the rid sidecar's
    atomic replace (made by a stale coordinator's data fetch), and the
    oplog append. *)

val compaction_points : point list
(** The shard store's compaction rewrite — {write, fsync, rename,
    fsync-dir} of its atomic replace, on the shard file class.  Not in
    {!points}: compaction fires at a record-count threshold the cluster
    cells never reach, so these cells run against a bare store
    ({!run_compaction_cell}). *)

val compaction_faults : Storage.fault list
(** The fault classes a store-level compaction cell can meaningfully
    grade: everything except [Fsync_lie] (undetectable without a peer
    to refetch from — the cluster matrix covers it) and [Read_eio]
    (reads happen only at boot). *)

val point_name : point -> string
(** ["shard.fsync"], ["rids.rename"], ["oplog.write"],
    ["compaction.write"], ... *)

type outcome =
  | Recovered  (** the victim serves writes again after restart + RECOVER *)
  | Fenced of string
      (** the victim explicitly refuses service (degraded or denied) —
          safe, and visible to clients *)
  | Unavailable of string  (** the healthy majority stopped serving *)
  | Corrupt of string
      (** the post-run audit is unsafe ({!Cluster.safe}: an oracle
          violation, of the one object or of a key, or a double-applied
          request), or found mid-log damage the victim kept serving
          through *)

val outcome_letter : outcome -> char
(** [R]/[F]/[U]/[C]. *)

val ok : outcome -> bool
(** [Recovered] and [Fenced] are healthy; the other two fail the cell. *)

type cell = {
  c_point : point;
  c_fault : Storage.fault;
  c_outcome : outcome;
  c_recovery : float;  (** seconds from restart to the victim's verdict *)
  c_injected : int;  (** triggers that actually fired (0 = never reached) *)
}

val run_cell : dir:string -> seed:int -> point -> Storage.fault -> cell
(** One hermetic cell under [dir]: boot a 4-site cluster (fault-injecting
    filesystem on site 0), write a healthy baseline (without the victim
    for a rid-sidecar point, so its struck write must fetch first), arm
    the trigger, drive the struck write through the victim (with
    same-request retries to healthy sites), kill the victim, simulate the
    power cut, restart, RECOVER, and probe both the victim and a healthy
    site; then audit the cell directory through the chaos oracle. *)

val run_compaction_cell : dir:string -> seed:int -> point -> Storage.fault -> cell
(** One hermetic compaction cell under [dir]: drive a single-shard
    store ([durable:false]) to its compaction threshold with the
    pre-threshold history explicitly fsynced, arm the fault on the
    rewrite's own [nth] shard-class operation, follow with the durable
    rids-sidecar replace (whose directory fsync promotes any pending
    rename — the sequence that turns an unsynced compaction rename into
    a durably empty log), power-cut, and regrade from a clean offline
    scan.  Healthy cells recover the last fsynced record or the struck
    one; anything older, damaged, or vanished is {!Corrupt}. *)

val run :
  ?jobs:int ->
  ?seed:int ->
  ?faults:Storage.fault list ->
  ?points:point list ->
  dir:string ->
  unit ->
  cell list
(** The cross product, fanned out over a {!Dynvote_exec.Pool} ([jobs]
    defaults to [DYNVOTE_JOBS] / the hardware).  Cells get distinct
    derived seeds; the result order is deterministic (point-major). *)

val pp_table : Format.formatter -> cell list -> unit
(** The letter table (rows: points; columns: faults), one FAIL line per
    unhealthy cell, and a PASS/FAIL verdict — deliberately free of
    timings and counts so expected output can be pinned. *)
