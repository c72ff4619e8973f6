(** Orchestration of a live cluster: the switchboard, the site loop that
    steps every site ({!Site_loop}), client connections, fault
    injection, and the end-of-run
    safety audit that replays every node's on-disk operation log through
    the chaos {!Dynvote_chaos.Oracle}.

    All state lives under one directory ([dir/site-<k>/...]); {!create}
    reuses whatever a previous incarnation left behind, so a whole
    cluster can be stopped and resumed. *)

type t

val create :
  ?flavor:Decision.flavor ->
  ?segment_of:(Site_set.site -> int) ->
  ?config:Node.config ->
  ?client_timeout:float ->
  ?obs:Dynvote_obs.Hub.t ->
  ?vfs_of:(Site_set.site -> Vfs.t) ->
  universe:Site_set.t ->
  dir:string ->
  unit ->
  t
(** Start the switchboard and the site loop, boot every site, then hand
    every site to the loop.  A site whose shard logs already exist restarts from them
    (and is not fresh until its next commit); otherwise it is seeded
    ({!Node.seed}) with the paper's initial state (o = v = 1, P =
    universe, an empty store at data version 1).  [client_timeout]
    (default 10 s) bounds every client call.  When any site fails to
    seed or boot, the sites already booted are closed, and the loop and
    the switchboard are shut down before that site's exception
    propagates: a failed [create] holds no descriptor, thread or
    domain.

    Over an old directory the cluster resumes past the previous
    incarnation: its global stamp starts above every {!Node.max_seq}
    and its client ids above every {!Node.max_client} — the oplogs'
    request ids and the recovered applied-request tables, since the
    oplogs are never fsynced and after a whole-cluster power cut a
    client's id may survive only in those tables.  Both floors come
    from each node's one boot scan, read through that site's [vfs_of]
    filesystem, before any site serves; no log is read twice.

    [segment_of] defaults to point-to-point links (each site its own
    segment), so any partition is physically possible.  A coarser map
    declares shared-medium segments: the switchboard then refuses to
    split same-segment sites, and TDV tie-breaks see the co-location.

    [obs] defaults to a fresh live {!Dynvote_obs.Hub} shared by the
    switchboard and every node (including restarted ones); pass
    {!Dynvote_obs.Hub.noop} to run uninstrumented.

    [vfs_of] (default: {!Dynvote.Vfs.real} everywhere) picks the
    filesystem each site's stable storage goes through — a
    fault-injecting vfs on one site turns that site into the victim of a
    storage-fault experiment.  Restarted incarnations ask [vfs_of]
    again, so a closure over a mutable ref can repair the disk between
    incarnations. *)

val universe : t -> Site_set.t
val dir : t -> string

val obs : t -> Dynvote_obs.Hub.t
(** The hub all components of this cluster report into — where
    [dynvote stats] and the load generator read their numbers. *)

val port : t -> int

val client_timeout : t -> float
(** The bound on one client call ([client_timeout] of {!create}). *)

val backend : t -> string
(** The switchboard's readiness backend (["epoll"] or ["poll"]) —
    recorded in bench output. *)


val up_sites : t -> Site_set.t

val degraded : t -> Site_set.site -> string option
(** [Some reason] when the site's running node has fenced itself
    read-only after a storage failure; [None] for healthy or dead
    sites. *)

(** {2 Fault injection} *)

val partition : t -> Site_set.t list -> unit
(** Forwarded to {!Switchboard.partition} (segment-aware validation). *)

val heal : t -> unit

val kill : t -> Site_set.site -> unit
(** Sever the node's socket and wait until the site loop has closed it:
    a process kill.  All volatile state (locks, resident objects) dies;
    the shard logs and the oplog survive.  A node whose fsync is out
    closes once the fsync returns. *)

val restart : t -> Site_set.site -> unit
(** {!kill} the site if it runs, then boot a fresh node for it from its
    on-disk state and hand it to the site loop.  The node claims no
    freshness until it applies a commit; lost shard logs leave it
    amnesiac (see {!Node.boot}). *)

val kill_async : t -> Site_set.site -> unit
(** {!kill} without waiting for the site loop to close the victim —
    safe to call from a commit hook, which runs {e on} the site loop.
    {!restart} waits for the close. *)

val set_commit_hook :
  t -> Site_set.site -> (sent:int -> total:int -> unit) option -> unit
(** Install a fault-injection hook on the site's node: it fires after
    each COMMIT send of a wave that node coordinates.  Raising
    {!Node.Killed} from it strikes the coordinator itself; calling
    {!kill_async} strikes a participant mid-wave. *)

val strike_after : t -> Site_set.site -> int -> unit
(** Arm the deterministic mid-commit killer: the next COMMIT wave this
    site coordinates raises {!Node.Killed} after its [n]-th send, so
    only a prefix of the recipients hears the commit.  The site dies
    exactly as under {!kill}, and the loop's other sites carry on; pair
    with {!restart}. *)

(** {2 Clients} *)

type client

val client : t -> client
(** Open a client connection through the switchboard.  A client is
    single-threaded: one outstanding operation at a time. *)

type reply = {
  status : Wire.status;
  value : string option;
  info : string;
  retries : int;  (** how many times the call moved to another site *)
}

val retry_site :
  retries:int ->
  up:Site_set.t ->
  tries:int ->
  at:Site_set.site ->
  Wire.status ->
  Site_set.site option
(** The retry rule every client shares ({!put}, {!get} and the load
    generator's herd): after [tries] retries, a call answered
    [Aborted] or [Degraded] at [at] — a call that timed out counts as
    [Aborted] — moves to the lowest site of [up] other than [at], while
    [tries < retries].  [Granted] and [Denied] are definitive: [None].
    The retry goes out {e under the same request number}, so a write
    whose first coordinator died mid-commit is deduplicated rather than
    applied twice. *)

val put :
  ?retries:int -> client -> at:Site_set.site -> key:string -> value:string -> reply
(** [retries] (default 0) bounds how many times the call moves to
    another up site under {!retry_site}. *)

val get : ?retries:int -> client -> at:Site_set.site -> key:string -> reply

val recover_site : client -> Site_set.site -> reply
(** Ask a (restarted) site to run the paper's RECOVER protocol on the
    one object of [shards = 0]; a sharded site refuses. *)

(** {2 Audit}

    The merged per-node logs, ordered by the global sequence stamp,
    replayed object by object through the safety oracle; the final
    per-site states in the shard logs feed the content-fork scan. *)

type audit = {
  oracle : Dynvote_chaos.Oracle.t;
      (** the one object of [shards = 0] — the paper's file, whose
          content is the whole map *)
  torn : Site_set.t;  (** sites whose log ended in a torn record *)
  corrupt : int;
      (** checksum-failing records found {e mid-log} (intact records
          after them) across all sites — damage an honest crash cannot
          produce *)
  dup_applies : int;
      (** request ids the merged history shows committing more than once
          — an exactly-once violation; counted across every object (the
          request-id space is global) *)
  records : int;
  keys : int;
      (** distinct keyed objects ([shards > 0]) seen in the merged logs
          or the shard-log finals; [0] for a [shards = 0] run *)
  kviolations : (string * Dynvote_chaos.Oracle.violation) list;
      (** per-key oracle violations: every key replays through its own
          oracle (each key is an independent register), with its final
          per-site (data_version, content) states read offline from the
          shard logs *)
}

val check : t -> audit
(** Read every [oplog.dvl] and the final shard-log states from disk.
    Run only while the cluster is quiescent (no client operation in
    flight). *)

val check_dir : universe:Site_set.t -> dir:string -> audit
(** The same audit against a directory with no cluster running — what
    the crash-point matrix grades a cell by after its cluster stopped. *)

val safe : audit -> bool
(** The one verdict over an audit: the one-object oracle is safe, no
    key has a violation and no request was applied twice. *)

(** {2 State directories} *)

val temp_dir : string -> string
(** [temp_dir prefix] creates a fresh, empty directory named after
    [prefix] under the temporary-file directory ([TMPDIR]) and returns
    its path. *)

val remove_dir : string -> unit
(** Remove a directory and everything under it (symbolic links are
    removed, not followed); a missing path is not an error. *)

(** {2 Shutdown} *)

val shutdown : t -> unit
(** Close every connection, stop the broker and join its domain, then
    stop the site loop once every site has closed on its connection's
    EOF, and join it.  The loop is stopped even when the broker died of
    an exception; that exception is re-raised after. *)
