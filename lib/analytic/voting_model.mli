(** Exact Markov model of dynamic voting on a single non-partitionable
    segment with exponential failures and repairs.

    Used to cross-validate the discrete-event simulator: for DV/LDV/TDV
    (instantaneous quorum adjustment) the model is exact; for the
    optimistic variants it assumes Poisson accesses at [access_rate] per
    day, an approximation to the simulator's deterministic daily access. *)

type state = { up : int; block : int; fresh : int }
(** Bitmasks: up sites, current majority block, and sites continuously up
    since the last commit (the only ones allowed to sponsor or carry
    topological vote claims). *)

val grants : flavor:Decision.flavor -> ordering:Ordering.t -> state -> bool
(** Would an access be granted in this state? *)

type t
(** One walked chain: the four figures below are queries on it. *)

val chain :
  flavor:Decision.flavor ->
  ?access_rate:float ->
  fail_rate:float array ->
  repair_rate:float array ->
  ordering:Ordering.t ->
  unit ->
  t
(** Walks the chain from the all-up state.  Rates are per day.
    [access_rate] switches to the optimistic (access-time refresh)
    model.  @raise Invalid_argument on a rate that is not positive and
    finite (nan included) or more than 16 sites. *)

val unavailability : t -> float
(** Steady-state probability that an access would be denied. *)

val mean_time_to_unavailability : t -> float
(** Reliability: expected days from the all-up start until an access would
    first be denied (mean first-passage time in the exact chain). *)

val survival : t -> times:float list -> float list
(** The reliability function R(t) at each of [times]: probability of no
    unavailability during [0, t] days, starting all-up (one
    uniformization pass on the exact chain for every horizon). *)

type periods = {
  availability : float;
  failures_per_day : float;  (** frequency of available→unavailable transitions *)
  mean_up_days : float;      (** mean length of an available period *)
  mean_down_days : float;    (** mean length of an unavailable period (Table 3's exact analog) *)
}

val period_statistics : t -> periods
(** Stationary renewal quantities of the availability process. *)

val site_availability : fail_rate:float array -> repair_rate:float array -> float array
