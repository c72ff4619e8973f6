(** Continuous-time Markov chains with on-the-fly state discovery.

    Supply an initial state and a transition function to {!explore}: one
    breadth-first walk asks each reachable state for its transitions
    once and keeps the chain as arrays.  Every analysis below is a query
    on that walk.  One Gauss–Seidel solver gives the stationary
    distribution and the mean first-passage time, each probability
    accurate relative to itself rather than to 1, in memory linear in
    the states plus edges; one uniformization pass gives the survival
    function at every horizon asked for. *)

type 'state t

val explore :
  ?max_states:int ->
  initial:'state ->
  transitions:('state -> (float * 'state) list) ->
  unit ->
  'state t
(** States must be hashable/comparable by structure.  Rates must be
    finite and non-negative; zero-rate edges and self-loops are ignored.
    @raise Failure ["Ctmc.explore: state space too large"] when more
    than [max_states] (default 200,000) states are reachable,
    [Invalid_argument] on a negative, infinite or nan rate. *)

val n_states : 'state t -> int

(** {2 The stationary distribution}

    Solved on the first query and kept.
    @raise Failure ["Ctmc: reducible chain"] when some reachable state
    cannot return to the initial one. *)

val probability : 'state t -> 'state -> float
(** Stationary probability of one state (0 if unreachable). *)

val mass : 'state t -> ('state -> bool) -> float
(** Total stationary probability of the states satisfying the predicate. *)

val flux : 'state t -> target:('state -> bool) -> float
(** Stationary rate of entries into the target set: the probability flow
    along the edges from the other states into it. *)

(** {2 First passage into a target set, from the initial state} *)

val expected_hitting_time : 'state t -> target:('state -> bool) -> float
(** Mean first-passage time to the target set (the replicated file's
    mean time to unavailability, when the target is "access denied").
    Zero when the initial state is already a target; [infinity] when
    some state reachable without entering the target can never reach
    it, the target set being unreachable altogether included. *)

val survival : 'state t -> target:('state -> bool) -> times:float list -> float list
(** The probability that the chain has not entered the target set by
    each of [times], in the same order (uniformization, accurate to
    1e-12).  This is the reliability function R(t) when the target is
    "file unavailable".
    @raise Invalid_argument on a negative, infinite or nan time. *)
