(** Load generator for the live service: a herd of concurrent clients
    driving a read/write mix against real sockets, reporting goodput
    with a batch-means 95% confidence interval and exact latency
    percentiles.

    Every client is multiplexed onto one thread through an {!Evloop}
    of nonblocking {!Evconn} connections, with at most one call out
    per client — ten thousand clients are ten thousand descriptors,
    not threads.  Two arrival models: {e closed loop} (each client
    issues its next operation the moment the previous one completes —
    measures capacity) and {e open loop} (operations are scheduled by a
    Poisson process at a target rate; latency is measured from the
    {e intended} start, so queueing delay is charged to the service
    rather than hidden — coordinated omission accounted for).

    Every call has a deadline.  A call answered [Aborted] or [Degraded],
    or unanswered by its deadline, moves to another up site under
    {!Cluster.retry_site} while its retry budget lasts; otherwise an
    unanswered call counts as aborted.  A call whose target is already
    down is denied (["site down"]) without being sent. *)

type config = {
  clients : int;  (** concurrent clients, one connection each *)
  duration : float;  (** seconds of load *)
  write_ratio : float;  (** fraction of operations that are puts *)
  keys : int;  (** key space size *)
  zipf : float;
      (** key-popularity skew: [0.0] (the default) draws keys uniformly;
          [s > 0] draws rank [k] with probability proportional to
          [1 / (k+1)^s] ({!Dynvote_shard.Zipf}), the classic hot-set
          workload for the sharded object space *)
  value_bytes : int;  (** payload size per put *)
  rate : float option;
      (** [Some r]: open loop at [r] ops/s total; [None]: closed loop *)
  seed : int;  (** deterministic client randomness (see {!worker_seeds}) *)
  sites : Site_set.t option;
      (** coordinate at these sites (uniform); default: the universe *)
  retries : int;
      (** how many times an aborted, degraded-site or timed-out call
          moves to another up site under the same request number
          (exactly-once via the sites' dedup tables) *)
}

val default : config
(** 4 clients, 5 s, 30% writes, 16 keys (uniform, [zipf = 0]), 64-byte
    values, closed loop, no retries. *)

type op_stats = {
  issued : int;
  granted : int;
  denied : int;
  aborted : int;
  degraded : int;  (** calls whose final reply came from a fenced site *)
  retried : int;  (** total cross-site retries performed *)
  dup_acks : int;
      (** granted writes acknowledged by dedup rather than a fresh
          commit — a retry whose first attempt had already landed *)
  latency : Dynvote_stats.Welford.t;  (** seconds, every completed call *)
  p50 : float;
  p95 : float;
  p99 : float;  (** exact (sorted-sample) percentiles, seconds *)
}

type hotset = {
  distinct : int;  (** distinct keys at least one call touched *)
  top_share : float;
      (** fraction of all completed calls that went to the hottest 1% of
          the key space (at least one key); [nan] when nothing
          completed.  Near [0.01 x keys / distinct] for a uniform draw,
          far above it under [zipf] skew *)
}

type result = {
  wall : float;  (** measured duration (monotonic clock) *)
  reads : op_stats;
  writes : op_stats;
  goodput : Dynvote_stats.Batch_means.interval;
      (** granted ops/s over ten batches tiling exactly
          [[t_start, t_start + duration)], Student-t 95% *)
  late : int;
      (** granted calls that completed after the cutoff (closed-loop
          stragglers) — excluded from the goodput windows, never
          silently dropped *)
  hotset : hotset;  (** per-key coverage of the run *)
}

val run : Cluster.t -> config -> result
(** Blocks for [config.duration], plus at most the cluster's client
    timeout for calls still out at the cutoff; the cluster keeps running
    afterwards.  Calls time out after {!Cluster.client_timeout}, and a
    call to a site the cluster reports down is denied without sending.
    Latencies also feed the cluster hub's registry as the
    [loadgen.read.seconds] / [loadgen.write.seconds] histograms and the
    [loadgen.ops.*] counters (issued, granted, retries, dup_acks,
    fenced). *)

val run_at :
  ?obs:Dynvote_obs.Hub.t ->
  port:int ->
  universe:Site_set.t ->
  config ->
  result
(** {!run} against a bare switchboard port — no [Cluster.t] in hand, so
    the generator can live in a {e different process} from the service
    (each process then has its own descriptor budget, which is what a
    ten-thousand-connection herd needs under a hard [RLIMIT_NOFILE]).
    With no cluster to ask, every site of [universe] counts as up, and
    calls time out after 10 s, the default client timeout of
    {!Cluster.create}.  [obs] (default {!Dynvote_obs.Hub.noop})
    receives the [loadgen.*] instruments. *)

val worker_seeds : seed:int -> n:int -> int64 array
(** The per-client RNG seeds a run with [config.seed = seed] and
    [clients = n] uses: splitmix64-split streams, so distinct
    [(seed, index)] pairs never share a stream (the old
    [seed * 65599 + index] derivation collided). *)

val percentile : float array -> float -> float
(** [percentile sorted p]: the exact [p]-quantile of an ascending-sorted
    sample array (nearest-rank); [nan] on the empty array. *)

val pp_result : Format.formatter -> result -> unit
(** The human report ([dynvote loadgen] output). *)
