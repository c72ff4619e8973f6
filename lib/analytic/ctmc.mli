(** Continuous-time Markov chains with on-the-fly state discovery.

    Supply an initial state and a transition function; one breadth-first
    exploration enumerates the reachable state space for every entry
    point below, and the stationary distribution is solved exactly
    (dense Gaussian elimination), suitable for the small chains arising
    from 1–5 site voting models.

    Every entry point takes [max_states] (default 4096, a 128 MB dense
    matrix) and raises [Failure "<entry point>: state space too large"]
    when more states are reachable, before any matrix is allocated. *)

type 'state t

val build :
  ?max_states:int ->
  initial:'state ->
  transitions:('state -> (float * 'state) list) ->
  unit ->
  'state t
(** States must be hashable/comparable by structure.  Rates must be
    non-negative; zero-rate edges are ignored.
    @raise Failure when more than [max_states] states are reachable,
    [Invalid_argument] on negative rates, [Matrix.Singular] if the chain
    is reducible. *)

val n_states : 'state t -> int

val probability : 'state t -> 'state -> float
(** Stationary probability of one state (0 if unreachable). *)

val mass : 'state t -> ('state -> bool) -> float
(** Total stationary probability of the states satisfying the predicate. *)

val iter : 'state t -> ('state -> float -> unit) -> unit

val survival :
  ?max_states:int ->
  ?tolerance:float ->
  initial:'state ->
  transitions:('state -> (float * 'state) list) ->
  target:('state -> bool) ->
  t:float ->
  unit ->
  float
(** [survival ~initial ~transitions ~target ~t ()] is the probability that
    the chain has not entered the target set by time [t] (uniformization;
    accurate to [tolerance], default 1e-12).  This is the reliability
    function R(t) when the target is "file unavailable". *)

val expected_hitting_time :
  ?max_states:int ->
  initial:'state ->
  transitions:('state -> (float * 'state) list) ->
  target:('state -> bool) ->
  unit ->
  float
(** Mean first-passage time from [initial] to the target set (the
    replicated file's mean time to unavailability, when the target is
    "access denied").  Zero when [initial] is already a target.
    @raise Matrix.Singular when the target is unreachable from some
    reachable state (infinite expectation). *)
