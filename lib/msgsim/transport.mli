(** Asynchronous message transport over the simulated network.

    Delivery order is deterministic (timestamp, then send order); messages
    between unconnected sites are dropped silently, matching the paper's
    "no answer means unavailable" model.

    A composable {e fault plan} can additionally lose, duplicate or delay
    any message at send time — the adversarial delivery model of the chaos
    harness.  Injected faults are accounted separately from partition
    drops. *)

type t

type fault =
  | Loss       (** Bernoulli per-link loss *)
  | Flap       (** scheduled link outage window *)
  | Duplicate  (** extra copy injected *)
  | Delay      (** bounded extra latency (reordering) *)

val fault_name : fault -> string

type verdict =
  | Pass  (** deliver normally *)
  | Drop_it of fault  (** lose the message ({!Loss} or {!Flap}) *)
  | Deliver_copies of float list
      (** deliver one copy per list entry, each with the given {e extra}
          delay on top of the link latency: [[0.]] is a normal delivery,
          [[0.; 0.]] a duplicate, [[d]] a delayed (reordered) message and
          [[]] a loss *)

type plan = now:float -> Message.t -> verdict
(** Consulted once per send, after the connectivity check. *)

type stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped_partition : int;  (** destination unreachable *)
  mutable dropped_fault : int;      (** eaten by the fault plan *)
  mutable duplicated : int;         (** extra copies injected *)
  mutable delayed : int;            (** copies given extra latency *)
  mutable flapped : int;            (** share of [dropped_fault] due to flaps *)
  mutable bytes : int;
  by_kind : int array;  (** sends per {!Message.kind_index} *)
}

val create :
  ?latency:(Site_set.site -> Site_set.site -> float) ->
  ?connected:(Site_set.site -> Site_set.site -> bool) ->
  unit ->
  t
(** Defaults: 1 ms latency between every pair, full connectivity, no
    fault plan. *)

val set_connectivity : t -> (Site_set.site -> Site_set.site -> bool) -> unit

val set_plan : t -> plan -> unit
val clear_plan : t -> unit

val set_fault : t -> (Message.t -> bool) -> unit
(** Single-predicate sugar over {!set_plan}: matching messages are lost
    (counted as {!Loss} faults). *)

val clear_fault : t -> unit
val register : t -> Site_set.site -> (t -> Message.t -> unit) -> unit
val now : t -> float

val in_flight : t -> int
(** Messages scheduled but not yet delivered (e.g. still delayed past the
    last deadline). *)

val send : t -> src:Site_set.site -> dst:Site_set.site -> Message.payload -> unit
val broadcast : t -> src:Site_set.site -> targets:Site_set.t -> Message.payload -> unit
(** To every member of [targets] except [src]. *)

val run_until_quiet : t -> unit
(** Deliver all in-flight messages (and any they trigger), in order.
    Connectivity is rechecked at delivery time. *)

val run_for : t -> timeout:float -> unit
(** Deliver only what arrives within the next [timeout] simulated seconds
    and advance the clock to that deadline; later messages stay in flight
    and may surface as stale traffic during subsequent rounds.
    @raise Invalid_argument on a negative timeout. *)

val stats : t -> stats
val messages_sent : t -> int
val messages_delivered : t -> int

val messages_dropped : t -> int
(** [messages_dropped_partition + messages_dropped_fault]. *)

val messages_dropped_partition : t -> int
val messages_dropped_fault : t -> int
val bytes_sent : t -> int
val kind_count : t -> string -> int

val fault_count : t -> fault -> int
(** Injected-fault statistics by kind. *)

val reset_stats : t -> unit
