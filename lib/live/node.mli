(** One live site: a server thread behind a real socket, holding its
    copies of the replicated objects — each an (o, v, P) ensemble plus a
    value — and their volatile locks.  Objects persist in the site's
    shard logs ({!Dynvote_shard.Shard_store}), the history in its
    {!Persist} operation log, so a kill-and-restart recovers from disk.

    There is one engine.  With [shards > 0] every client key is its own
    object; with [shards = 0] the paper's single file is one
    distinguished object ({!map_key}) whose value is the whole key ->
    value map, so a put is a read-modify-write of that object and RECOVER
    applies to it.

    The node serves the peer protocol (state / lock / data / commit) and
    coordinates client operations itself, running the paper's protocol as
    genuine request/reply exchanges: volatile lock round, broadcast
    gather, majority-partition decision, verified data fetch, then the
    COMMIT wave (or an ABORT that releases the locks).  While a
    coordinator waits for its own replies it keeps serving incoming peer
    requests on the same connection, so concurrent coordinators never
    deadlock. *)

type config = {
  gather_timeout : float;  (** seconds to wait per gather round *)
  retries : int;  (** re-ask silent sites this many times *)
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
      (** client operations admitted concurrently (as effect-suspended
          fibers; a ticket turnstile keeps their protocol sections in
          admission order).  [1] — the default — is the fully sequential
          coordinator, frame-for-frame identical to earlier behaviour *)
  max_reuse : int;
      (** operations that may join an anchored lock round and decide
          against its cached gather before a fresh round is forced (the
          anchor also rotates at 0.4 x [lock_lease] regardless).  [0] —
          the default — disables anchoring: every operation runs its own
          lock round and gather *)
  shards : int;
      (** [> 0]: every key is an independently-voted (o, v, P) object,
          persisted across this many per-site append logs, coordinated
          by group-quorum rounds that cover every key of a scheduler
          burst in one wire exchange.  [0] — the default — runs the same
          engine over one object holding the whole map, in one shard
          log; only this mode has RECOVER *)
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
(** Raised inside the node thread by a crash hook: the thread unwinds
    instantly, losing all volatile state — the deterministic stand-in for
    "the process died at this exact instant". *)

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
    leaves the node {e amnesiac}: silent to state requests and refusing
    to coordinate — until a RECOVER of the one object succeeds at
    [shards = 0], for good at [shards > 0].  A mid-log corrupt oplog or
    shard log — checksum-failing records with intact ones after them,
    damage no crash explains — boots the node straight into degraded
    mode.  [vfs] (default {!Dynvote.Vfs.real}) carries every
    stable-storage byte, so a fault-injecting filesystem can strike any
    single operation.  [was_restarted] clears the freshness claim until
    the node applies its next commit.  [obs] receives the node's
    counters, latency histogram and trace events (pass
    {!Dynvote_obs.Hub.noop} to compile them all down to a branch). *)

val serve : t -> unit
(** The node thread body: handle frames until the connection dies. *)

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

val max_client : t -> int
(** The highest client id in the node's applied-request table (0 when
    it is empty) — recovered at boot from the fsynced shard logs and
    the rid sidecar. *)

val set_commit_hook : t -> (sent:int -> total:int -> unit) option -> unit
(** Fired after each COMMIT send of a wave this node coordinates
    ([sent] of [total]); the hook may raise {!Killed} to strike the
    coordinator mid-commit. *)
