(** The explorer's action alphabet: which {!Dynvote_chaos.Schedule.step}s
    to branch on at a given cluster state.

    Actions are one client operation, crash, restart or topology change
    each — the granularity at which the cluster's coordinator rounds are
    atomic, and the encoding the chaos harness replays verbatim.
    Message-level nondeterminism enters through the coordinator crash
    points, not through individual deliveries. *)

type t = {
  reads : bool;  (** branch on READ operations (they commit (o+1, v, S)) *)
  coordinator_crashes : bool;
      (** writes whose coordinator dies at the harness crash point *)
  recoveries : bool;  (** RECOVER at down or amnesiac sites *)
  partitions : bool;  (** two-way cuts and heals *)
  corruptions : Dynvote_chaos.Schedule.corruption option list;
      (** stable-record fates branched per restart.  [Bit_flip] draws on
          the rng and would break rollback determinism — excluded. *)
}

val default : t
(** The depth-oriented alphabet: writes, coordinator crashes, crashes,
    clean restarts, recoveries and topology changes.  Reads and record
    corruption are off — they roughly double the branching factor while
    every known violation (including the published TDV hole) is reachable
    without them. *)

val full : t
(** [default] plus reads and zeroed-record restarts ([Truncate] is
    behaviorally identical to [Zero] — both fail the checksum). *)

val amnesia_free : t -> bool
(** No corrupting restarts: every site's operation number is monotone
    along every path, which licenses the fingerprint's generation-table
    GC ({!Fingerprint.canonical}). *)

val partition_masks : config:Dynvote_chaos.Harness.config -> int list
(** Distinct proper two-way splits in the harness's mask encoding:
    rank-indexed bits, or segment bits under a topological flavor (whose
    network model cannot cut a segment in two).  Complement duplicates
    are halved by always setting the lowest-ranked bit. *)

val enabled :
  t ->
  config:Dynvote_chaos.Harness.config ->
  cluster:Dynvote_msgsim.Cluster.t ->
  Dynvote_chaos.Schedule.step list
(** The enabled actions at the cluster's current state, in a fixed
    deterministic order (operations, crashes, restarts, recoveries,
    topology changes). *)
