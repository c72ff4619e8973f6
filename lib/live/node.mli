(** One live site, as a step machine: the copies of the replicated
    objects it holds — each an (o, v, P) ensemble plus a value — their
    volatile locks, and one switchboard connection, but no thread.
    Objects persist in the site's shard logs
    ({!Dynvote_shard.Shard_store}), the history in its {!Persist}
    operation log, so a kill-and-restart recovers from disk.  Its caller
    steps it: {!take} hands it the frames read off its connection,
    {!settle} lets it run, {!expire} fires its due deadline and
    {!next_deadline} says when that falls; {!Site_loop} is the caller
    that steps every local site on one thread.

    There is one engine.  With [shards > 0] every client key is its own
    object; with [shards = 0] the paper's single file is one
    distinguished object ({!map_key}) whose value is the whole key ->
    value map, so a put is a read-modify-write of that object and RECOVER
    applies to it.

    The node serves the peer protocol (START / unlock / data / commit)
    and coordinates client operations itself, running the paper's
    protocol as genuine request/reply exchanges: one START that locks
    and gathers, majority-partition decision, verified data fetch, then
    the COMMIT wave that releases the locks.  While a coordinator waits
    for its own replies it keeps serving incoming peer requests on the
    same connection, so concurrent coordinators never deadlock.  Each
    site coordinates one client operation at a time, in arrival order; a
    request is refused when it would start — fenced or amnesiac site,
    reserved key — so a site fenced while requests wait starts no round
    for them. *)

type config = {
  gather_timeout : float;
      (** seconds to wait per gather round; silent sites are re-asked
          once, with the patience multiplied by [backoff] *)
  backoff : float;  (** patience multiplier per retry, >= 1 *)
  lock_lease : float;
      (** seconds before an abandoned volatile lock self-releases (a
          coordinator that died mid-operation cannot unlock) *)
  lock_retries : int;  (** lock-round attempts before reporting busy *)
  lock_backoff : float;  (** seconds between lock-round attempts *)
  durable : bool;
      (** fsync the shard logs once per coalesced commit batch ([true],
          the paper's stable-storage requirement); [false] skips those
          fsyncs — for throughput experiments only *)
  clock : unit -> float;
      (** every deadline, lease and backoff reads this clock; defaults to
          the monotonic {!Dynvote_obs.Clock.now} so wall-clock steps
          cannot expire (or immortalize) leases.  Injectable for tests. *)
  pipeline : int;
      (** client requests admitted at once: the first [pipeline] of the
          coordinator's FIFO request queue are in flight — counted in
          [live.rounds.inflight], traced by [Round_start]/[Round_end] and
          timed by [live.node.op.seconds] from admission.  The
          coordinator still runs one operation at a time; no two of its
          operations overlap their rounds.  Queued requests pay off
          through batching: a fresh group lock round covers the objects
          of every queued request, and [max_reuse] lets the requests
          behind it join that round.  [1] is the default; values
          below 1 count as 1 *)
  max_reuse : int;
      (** operations that may join an anchored lock round and decide
          against its cached gather before a fresh round is forced (the
          anchor also rotates at 0.4 x [lock_lease] regardless).  [0] —
          the default — disables anchoring: every operation runs its own
          lock round and gather *)
  shards : int;
      (** [> 0]: every key is an independently-voted (o, v, P) object,
          persisted across this many per-site append logs, coordinated
          by group-quorum rounds that cover every key the coordinator
          has queued in one wire exchange.  [0] — the default — runs
          the same engine over one object holding the whole map, in one
          shard log; only this mode has RECOVER *)
  resident : int;
      (** bound on keys materialized in volatile memory at once (the
          shard map's LRU capacity); evicted keys re-materialize from
          the shard logs on next touch *)
}

val default_config : config
(** 0.2 s gather rounds, 1 retry, backoff 2.0, 2 s lock lease, durable,
    monotonic clock, no pipelining ([pipeline = 1], [max_reuse = 0]),
    one object ([shards = 0], [resident = 4096]). *)

type t

exception Killed
(** Raised out of a step by a crash hook or an injected crash point: the
    site unwinds instantly and its caller closes it, losing all volatile
    state — the deterministic stand-in for "the process died at this
    exact instant". *)

exception Dead
(** Raised out of a step when the node's connection is gone: the
    switchboard severed it (a crash) or went away.  Its caller closes
    the site. *)

val seed :
  dir:string -> site:Site_set.site -> universe:Site_set.t -> config:config -> unit
(** Write a new site's stable record — the initial state of the one
    object {!map_key} — straight to the real filesystem, before the site
    first boots.  {!boot} treats a store without it as lost. *)

val boot :
  site:Site_set.site ->
  universe:Site_set.t ->
  flavor:Decision.flavor ->
  segment_of:(Site_set.site -> int) ->
  config:config ->
  obs:Dynvote_obs.Hub.t ->
  dir:string ->
  ?vfs:Vfs.t ->
  next_seq:(unit -> int) ->
  port:int ->
  was_restarted:bool ->
  unit ->
  t
(** Load the objects from the shard logs under [dir] and connect to the
    switchboard on [port].  A store without its {!seed} record (the
    shards directory was lost), or with a shard log it cannot read,
    leaves the node {e amnesiac}: voteless (it answers a START by
    taking the locks without reporting an ensemble) and refusing to
    coordinate — until a RECOVER of the one object succeeds at
    [shards = 0], for good at [shards > 0].  A mid-log corrupt oplog or
    shard log — checksum-failing records with intact ones after them,
    damage no crash explains — boots the node straight into degraded
    mode.  [vfs] (default {!Dynvote.Vfs.real}) carries every
    stable-storage byte, so a fault-injecting filesystem can strike any
    single operation.  [was_restarted] clears the freshness claim until
    the node applies its next commit.  [obs] receives the node's
    counters, latency histogram and trace events (pass
    {!Dynvote_obs.Hub.noop} to compile them all down to a branch). *)

(** {2 Steps}

    Each step runs on the caller's thread, and none blocks: where the
    node would wait — for a reply, a deadline, or an fsync — it parks
    and returns.  A step may raise {!Killed}, {!Dead} or
    [Unix.Unix_error]; any of them ends the site, and the caller then
    {!close}s it. *)

val conn : t -> Evconn.t
(** The switchboard connection the caller reads frames from (with
    {!Evconn.on_readable}) and watches for writability. *)

val take : t -> (Wire.envelope, string) result list -> unit
(** Handle a batch of frames read off the connection, in order.  While a
    flush waits on its fsync ({!syncing}), the frames queue behind it,
    FIFO, and are handled once {!synced} has run.  A decode [Error]
    raises {!Dead} after the frames before it are handled. *)

val settle : t -> unit
(** Run the request queue, flush the coalesced commits, and write the
    outbound frames as far as the connection takes them ({!Evconn.flush};
    the caller watches for writability while {!Evconn.want_write}).  A
    node that is {!syncing} writes only what it queued before the
    flush, and nothing while its own COMMIT wave keeps its anchor and
    waits for the fsync. *)

val expire : t -> unit
(** Resume the parked operation if its deadline has passed on
    [config.clock]. *)

val next_deadline : t -> float option
(** The parked operation's deadline, on [config.clock]; [None] when
    nothing can expire (no operation parked, or the node is
    {!syncing}). *)

val syncing : t -> bool
(** A durable commit flush has written its records and waits on its
    fsync: the caller runs {!sync} off its own thread, and reports the
    outcome with {!synced}.  Meanwhile the node takes no frame and
    expires nothing. *)

val sync : t -> unit
(** The fsync of the node's shard logs, for a syncer thread: it touches
    nothing but the files of a node that is {!syncing}.  Raises what the
    storage raises. *)

val synced : t -> (unit, exn) result -> unit
(** Run the waiting flush's tail with the outcome of {!sync}: the oplog
    records, the lock releases and the wakes — or, if the sync failed,
    the rollback and the fence ({!Killed} for an injected crash point) —
    then resume an operation whose COMMIT wave waits on its own commit,
    then handle the frames that queued meanwhile. *)

val close : t -> unit
(** Close the node's oplog, shard logs and switchboard connection.  The
    caller must not close a node while a syncer runs {!sync} on it. *)

val map_key : string
(** The distinguished object of [shards = 0]: the empty key.  Clients of
    a sharded node cannot address it. *)

val encode_map : (string * string) list -> string
(** The one object's value: the canonical (key-sorted, length-framed)
    map blob — injective, so distinct stores never collide. *)

val decode_map : string -> (string * string) list
(** Inverse of {!encode_map} on its image (sorted bindings). *)

val content : key:string -> string option -> string
(** The oracle content of an object's value.  For {!map_key}, the map
    blob ([encode_map []] when never written); for any other key [""]
    when never written and ["=" ^ v] for value [v] — injective, so the
    audit's content-fork scan never confuses "no value" with an empty
    write. *)

val site : t -> Site_set.site
val is_amnesiac : t -> bool

val degraded : t -> string option
(** [Some reason] when a storage failure has fenced this site read-only:
    silent to state and lock requests, refusing commits, answering every
    client request with {!Wire.Degraded}.  Cleared only by rebooting the
    site. *)

val max_seq : t -> int
(** The highest global stamp in this site's oplog at boot (0 for an
    empty or unreadable log), folded by the boot's one oplog scan. *)

val max_client : t -> int
(** The highest client id this node has seen (0 when none): in its
    applied-request table — recovered at boot from the fsynced shard
    logs and the rid sidecar — and in the request ids of its oplog at
    boot, folded by the same scan as {!max_seq}. *)

val set_commit_hook : t -> (sent:int -> total:int -> unit) option -> unit
(** Fired after each COMMIT send of a wave this node coordinates
    ([sent] of [total]); the hook may raise {!Killed} to strike the
    coordinator mid-commit. *)
