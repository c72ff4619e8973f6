(** The in-process network: one broker, on its own OCaml domain, owning
    every inter-node connection, so partitions, heals and crashes can be
    injected into a *live* cluster of real sockets.

    Every node and client dials the switchboard's TCP listener and
    registers with a [Hello]; from then on the broker routes its frames.
    The broker is segment-topology-aware in the paper's sense: sites on
    one carrier-sense segment can never be separated, so {!partition}
    rejects any grouping that splits a segment — the injectable faults
    are exactly the gateway failures of Figure 8.  A frame whose
    endpoints are in different groups (or whose destination site is
    down) is silently dropped, which is what a partition looks like to
    the protocol.

    {!crash} severs a site's connection: the site loop observes EOF /
    EPIPE on the site's next socket operation and closes it with all
    volatile state, exactly like a killed process; only its on-disk
    files survive. *)

type t

val create :
  ?obs:Dynvote_obs.Hub.t ->
  ?clock:Dynvote_obs.Clock.t ->
  ?stall_timeout:float ->
  universe:Site_set.t ->
  segment_of:(Site_set.site -> int) ->
  unit ->
  t
(** Bind a loopback listener on an ephemeral port and spawn the broker
    domain — an {!Evloop} readiness loop (epoll on Linux, poll
    elsewhere), so connection count is bounded by
    descriptors, not FD_SETSIZE.  It is the live service's one extra
    domain: routing runs in parallel with the site loop instead of
    taking turns with it on the caller's runtime lock.  All sites start connected and no site
    is considered up until its node registers.  Client endpoint ids
    are handed out from {!Wire.first_client_id} up (see
    {!reserve_clients}).  [stall_timeout] (default: never) reaps, on the
    injected [clock], any connection holding a frame open without
    feeding it (slow loris) or connected without completing a Hello —
    the loop is the timeout mechanism; no read ever blocks.  [obs]
    (default {!Dynvote_obs.Hub.noop}) gets a [net.frames.*] counter and
    a trace event for every frame sent into the fabric, delivered to
    its destination, dropped by the topology, or rejected by its
    checksum, plus the partition/heal/crash injections, a
    [net.loop.wakeups] counter and a [net.batch.frames] histogram of
    frames coalesced per flush. *)

val port : t -> int

val backend : t -> string
(** ["epoll"] or ["poll"] — recorded in bench output. *)

val partition : t -> Site_set.t list -> unit
(** Install a partition.  @raise Invalid_argument when the groups do not
    cover the universe, overlap, or separate two sites that share a
    network segment (segments are unsplittable; only gateways fail). *)

val heal : t -> unit

val crash : t -> Site_set.site -> unit
(** Sever the site's connection and mark it down.  Idempotent. *)

val up_sites : t -> Site_set.t
(** Sites with a live registered connection. *)

val reserve_clients : t -> upto:int -> unit
(** Never hand out a client id at or below [upto] from now on.  A
    cluster resuming over persisted state reserves every id its dedup
    tables and logs have seen: a recycled id would make a fresh
    client's first writes look like replays of the previous
    incarnation's. *)

val is_up : t -> Site_set.site -> bool

val shutdown : t -> unit
(** Close every connection, stop the broker and join its domain.  The
    broker closes its connections however it ends, so the nodes see EOF
    even when it died of an exception; [shutdown] then re-raises that
    exception.  Idempotent. *)
