(** Continuous-time Markov chains with on-the-fly state discovery.

    Supply an initial state and a transition function; one breadth-first
    exploration enumerates the reachable state space for every entry
    point below.  One Gauss–Seidel solver over the explored edges gives
    the stationary distribution and the mean first-passage time, each
    probability accurate relative to itself rather than to 1, in memory
    linear in the states plus edges.

    Every entry point takes [max_states] (default 200,000) and raises
    [Failure "<entry point>: state space too large"] when more states
    are reachable, before any solve starts. *)

type 'state t

val build :
  ?max_states:int ->
  initial:'state ->
  transitions:('state -> (float * 'state) list) ->
  unit ->
  'state t
(** States must be hashable/comparable by structure.  Rates must be
    non-negative; zero-rate edges are ignored.
    @raise Failure when more than [max_states] states are reachable or
    some reachable state cannot return to [initial] (a reducible chain),
    [Invalid_argument] on negative rates. *)

val n_states : 'state t -> int

val probability : 'state t -> 'state -> float
(** Stationary probability of one state (0 if unreachable). *)

val mass : 'state t -> ('state -> bool) -> float
(** Total stationary probability of the states satisfying the predicate. *)

val iter : 'state t -> ('state -> float -> unit) -> unit

val survival :
  ?max_states:int ->
  initial:'state ->
  transitions:('state -> (float * 'state) list) ->
  target:('state -> bool) ->
  t:float ->
  unit ->
  float
(** [survival ~initial ~transitions ~target ~t ()] is the probability that
    the chain has not entered the target set by time [t] (uniformization,
    accurate to 1e-12).  This is the reliability function R(t) when the
    target is "file unavailable". *)

val expected_hitting_time :
  ?max_states:int ->
  initial:'state ->
  transitions:('state -> (float * 'state) list) ->
  target:('state -> bool) ->
  unit ->
  float
(** Mean first-passage time from [initial] to the target set (the
    replicated file's mean time to unavailability, when the target is
    "access denied").  Zero when [initial] is already a target;
    [infinity] when some reachable state can never reach the target,
    the target set being unreachable altogether included. *)
