(** Dependency-free metrics registry: named counters, gauges, and
    log-scaled latency histograms.

    A registry is either {e live} or the shared {!noop}; instruments
    handed out by the noop registry swallow every update, so
    instrumented code needs no [if enabled] branching and the disabled
    cost is one branch per update.  All instruments are safe to update
    from any thread. *)

type t

val create : unit -> t
(** A fresh live registry. *)

val noop : t
(** The registry that records nothing.  All instruments it returns are
    inert. *)

val live : t -> bool

(** {2 Counters} — monotone event counts (lock-free). *)

type counter

val counter : t -> string -> counter
(** Find or create the counter named [name]. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {2 Gauges} — last-written instantaneous values. *)

type gauge

val gauge : t -> string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {2 Histograms}

    Log-scaled: 16 geometric buckets per decade across [1e-6, 1e3]
    (seconds), plus underflow and overflow buckets, with an embedded
    {!Dynvote_stats.Welford} accumulator for the exact mean and extrema.
    A quantile is resolved to its bucket and reported as the bucket's
    geometric midpoint, so it is exact to within one bucket width
    (≈ 15% relative). *)

type histogram

val histogram : t -> string -> histogram
val observe : histogram -> float -> unit
val histogram_count : histogram -> int

val histogram_mean : histogram -> float
(** Exact (Welford) mean; [nan] when empty. *)

val histogram_max : histogram -> float

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [(0, 1]]: the geometric midpoint of the
    bucket holding the [ceil (q * count)]-th smallest sample ([nan] when
    empty).  The overflow bucket reports the exact maximum. *)

val quantile_bounds : histogram -> float -> float * float
(** The [(lo, hi)] bounds of the bucket {!quantile} resolved to: the
    exact sorted-sample quantile is guaranteed to lie in [[lo, hi]].
    [(nan, nan)] when empty. *)

(** {2 Snapshots} *)

type histogram_summary = {
  h_count : int;
  h_mean : float;
  h_p50 : float;
  h_p95 : float;
  h_p99 : float;
  h_max : float;
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;
  histograms : (string * histogram_summary) list;
}

val snapshot : t -> snapshot

val pp_snapshot : Format.formatter -> snapshot -> unit
(** Human-readable table. *)

val snapshot_to_json : snapshot -> string
(** Machine-readable snapshot, printed by {!Dynvote_report.Json}
    (non-finite floats become [null]). *)
