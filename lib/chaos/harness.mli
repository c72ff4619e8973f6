(** The chaos harness: run seeded fault schedules against the
    message-level protocol engine with the safety {!Oracle} attached.

    Every schedule gets a fresh cluster under relaxed ([Deadline])
    delivery, a seeded {!Fault_plan} on the transport, coordinator
    crashes via the cluster's chaos hooks, and stable-record corruption
    on restarts.  Results are fully determined by the seed. *)

type config = {
  flavor : Decision.flavor;
  universe : Site_set.t;
  segment_of : Site_set.site -> int;
  delivery : Dynvote_msgsim.Cluster.delivery;
  initial_content : string;
  crash_point : [ `After_decide | `Mid_commit ];
      (** where {!Schedule.Crash_coordinator} strikes.  [`After_decide]
          aborts before anything is distributed — safe under every
          flavor.  [`Mid_commit] tears the commit wave in half, outside
          the paper's atomic-update model; the oracle flags the resulting
          generation conflicts. *)
  expose_commits : bool;
      (** force [atomic_commits = false] on every fault plan: COMMITs
          suffer loss/flap/delay like any other message — the second half
          of dropping the atomic-update assumption. *)
}

val default_config : ?flavor:Decision.flavor -> unit -> config
(** Five sites in segments [{0,1} {2,3} {4}], deadline delivery
    (timeout 0.25 s, 2 retries, backoff 2.0), [`After_decide] crashes.
    [flavor] defaults to LDV. *)

type result = {
  violations : Oracle.violation list;
  granted : int;
  denied : int;
  aborted : int;
  commits : int;    (** commit applications witnessed by the oracle *)
  corrupted : int;  (** stable records mangled before a restart *)
  op_log : (Schedule.step * bool * string option) list;
      (** executed operations in order: step, granted, read content —
          the basis of delivery-equivalence comparisons *)
}

val run :
  ?rng:Dynvote_prng.Splitmix64.t ->
  config ->
  Schedule.t ->
  result * Dynvote_msgsim.Transport.stats

val run_ints :
  ?rng:Dynvote_prng.Splitmix64.t ->
  ?faults:Fault_plan.config ->
  config ->
  int list ->
  result
(** Decode integers as a {!Schedule} and run it — the entry point qcheck
    properties shrink through. *)

(** {2 Step-at-a-time execution}

    A {e session} is one live schedule execution.  {!run} is a session
    driven start to finish; the model checker drives one step by step,
    branching with {!checkpoint}/{!rollback}.  Both paths execute the
    same transition code, so a counterexample found by exhaustive search
    replays verbatim under {!run} (and vice versa). *)

type session

val make_session :
  ?rng:Dynvote_prng.Splitmix64.t -> ?faults:Fault_plan.config -> config -> session
(** A fresh cluster with the fault plan installed ([faults] defaults to
    {!Fault_plan.silent}) and the oracle attached. *)

val cluster : session -> Dynvote_msgsim.Cluster.t
val oracle : session -> Oracle.t

val write_content : int -> string
(** The content of a session's [n]th write, ["w<n>"].  Interned for the
    write counts a bounded search reaches; safe to call from any
    domain. *)

val apply_step : session -> Schedule.step -> unit
(** Execute one schedule step exactly as {!run} would: inapplicable steps
    (writing at a down site, restarting an up one, …) are no-ops. *)

val session_result : session -> result
(** The tallies so far, with an empty [op_log]: a session keeps no log
    ({!run} builds it step by step from {!last_op}).  Does not run the
    oracle's final check — call {!Oracle.final_check} (or
    {!Oracle.check_step} per step) yourself. *)

val last_op : session -> bool * string option
(** The newest client operation's outcome (a write, read or recover):
    whether it was granted, and what a read returned.  A step ran one
    exactly when it moved [granted + denied + aborted]. *)

type checkpoint
(** Everything {!apply_step} mutates, except the rng stream — it is only
    consumed by [Bit_flip] corruption, which branching explorers exclude
    from their action alphabet precisely to stay rng-free — and
    {!last_op}, which is meant to be read right after the step that set
    it. *)

val checkpoint : session -> checkpoint

val rollback : session -> checkpoint -> unit
(** Rewind the session; replaying the same steps after a rollback is
    bit-identical to the first execution. *)

type policy = { name : string; flavor : Decision.flavor; expect_safe : bool }

val policies : policy list
(** The message-driven policies: dv, ldv, odv, tdv, otdv (as published —
    expected unsafe), tdv-safe, otdv-safe.  MCV is stateless and has no
    message-level protocol rounds to attack, so it is not listed. *)

val policy_of_string : string -> policy option

type summary = {
  policy : string;
  expect_safe : bool;
  schedules : int;
  steps : int;
  granted : int;
  denied : int;
  aborted : int;
  commits : int;
  corrupted : int;
  sent : int;
  delivered : int;
  dropped_partition : int;
  dropped_fault : int;
  duplicated : int;
  delayed : int;
  flapped : int;
  failure : (int * Schedule.t * Oracle.violation list) option;
      (** first failing schedule: index, schedule, its violations *)
  failures : int;  (** schedules with at least one violation *)
}

val run_many :
  ?config:config -> policy:policy -> seed:int64 -> schedules:int -> unit -> summary
(** Run [schedules] randomized schedules (lengths, intensities, faults
    and steps all drawn from [seed]) and aggregate.  Deterministic: the
    same seed yields an identical summary. *)

val verdict_ok : summary -> bool
(** No violations, or the policy was expected unsafe. *)

val pp_summary : Format.formatter -> summary -> unit
(** The one-line verdict. *)

val pp_failure : Format.formatter -> summary -> unit
(** Details of the first failing schedule, if any. *)
