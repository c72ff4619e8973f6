(** The paper's safety contract as one executable spec.

    The dynamic-voting analogues of the TLA+ [Voting] module's
    [VotesSafe] / [OneValuePerBallot], stated once and evaluated by
    every checker in the tree:

    - {e generation agreement}: at most one component granted per
      generation — every commit with operation number [o] carries the
      same (version, partition);
    - {e monotonicity}: per site, applied operation numbers strictly
      increase and version numbers never regress;
    - {e register-read consistency} (one-copy equivalence): a granted
      read returns the latest cleanly committed write, or the content of
      a later aborted ("maybe committed") write;
    - {e one committed version, one content}: sites agreeing on a
      committed version number hold identical bytes.

    One spec, three checkers: the chaos harness feeds it a live
    cluster's commit-witness stream (through the
    [Dynvote_chaos.Oracle] adapter), the bounded model checker
    evaluates and fingerprints it at every state, and the live
    service's audit replays recorded operation logs through {!replay}. *)

type violation =
  | Generation_conflict of {
      op_no : int;
      site_a : Site_set.site;
      version_a : int;
      partition_a : Site_set.t;
      site_b : Site_set.site;
      version_b : int;
      partition_b : Site_set.t;
    }  (** split-brain: one generation, two ensembles *)
  | Non_monotone_op of { site : Site_set.site; before : int; after : int }
  | Version_regression of { site : Site_set.site; before : int; after : int }
  | Stale_read of { at : Site_set.site; got : string; wanted : string list }
  | Content_fork of {
      version : int;
      site_a : Site_set.site;
      content_a : string;
      site_b : Site_set.site;
      content_b : string;
    }

type t

val create : initial_content:string -> t

val witness : t -> Site_set.site -> Replica.t -> unit
(** Feed one applied commit: the generation-agreement and per-site
    monotonicity checks run against it, and its version joins the
    committed-versions set.  This is the only place the
    generation-agreement predicate exists — checkers feed commits in
    and read violations out. *)

val write_flags : t -> granted:bool -> aborted:bool -> content:string -> unit
(** Feed a write's client-visible outcome to the register model: a
    granted write becomes the committed content, an aborted one joins
    the maybe set. *)

val read_flags : t -> at:Site_set.site -> granted:bool -> content:string option -> unit
(** Check a granted read against the register model. *)

val check_states : t -> (Site_set.site * int * string) list -> unit
(** The content-fork scan over [(site, data_version, content)] triples:
    {!check_fork} on every ordered pair of them.  Safe to call after
    every step — each fork is flagged once, at the first state exhibiting
    it, and not re-reported by later calls. *)

val check_fork :
  t ->
  site_a:Site_set.site ->
  version:int ->
  content_a:string ->
  site_b:Site_set.site ->
  version_b:int ->
  content_b:string ->
  unit
(** The content-fork predicate on one pair of holders: flags the pair
    when [site_a < site_b], both hold the same committed version and
    their contents differ, unless it is already flagged.  For a checker
    that walks its holders itself instead of listing them for
    {!check_states}. *)

(** {2 Log replay} *)

type replay_event =
  | Replay_commit of { site : Site_set.site; replica : Replica.t }
      (** a node applied this ensemble (the commit-witness stream) *)
  | Replay_intent of { content : string }
      (** a write coordinator is about to distribute COMMITs carrying
          [content]: from this moment the content may escape, so it joins
          the maybe set; the matching {!Replay_write} promotes it.  An
          intent with no outcome is a coordinator that died mid-wave —
          the aborted ("maybe committed") write of {!write_flags}. *)
  | Replay_write of { granted : bool; content : string }
  | Replay_read of { at : Site_set.site; granted : bool; content : string option }

val replay_event : t -> replay_event -> unit
(** Feed one recorded event (events must be in serialization order). *)

val replay :
  initial_content:string ->
  ?final:(Site_set.site * int * string) list ->
  replay_event list ->
  t
(** Feed recorded events through a fresh spec state (events must be in
    serialization order; the service's global sequence numbers provide
    it), then run the content-fork scan over [final] — each surviving
    node's last persisted [(site, data_version, content)]. *)

val violations : t -> violation list
(** In discovery order. *)

val is_safe : t -> bool
val commits_seen : t -> int
val reads_checked : t -> int
val pp_violation : Format.formatter -> violation -> unit

type snapshot
(** An immutable copy of the spec's full memory, for backtracking
    explorers that unwind it along with the cluster. *)

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit

val mem_committed_version : t -> int -> bool
(** Has some commit carried this version number? *)

val fingerprint_memory : t -> Fingerprint_buf.t -> unit
(** Serialize the spec's memory (register model, generation table,
    per-site monotonicity watermarks) canonically through the writer —
    the part of the model checker's product state that determines which
    future violations remain detectable.  The writer renames content
    strings, relabels sites for symmetry reduction and rebases the
    counter domains (the checks compare counters only for order and
    equality).  Generation entries whose operation number the writer
    calls dead ({!Fingerprint_buf.live_op}: below the floor its caller
    reset it with, raw, not rebased) are dropped as inert — the caller
    asserts no future commit can carry such an operation number (a
    floor of 0 keeps everything).  The committed-versions set is not
    serialized: its live content is the per-site
    {!mem_committed_version} bit, which the caller records alongside
    each site's data version.  Allocates nothing. *)
