(** Deterministic rendering of {!Checker.report}s (timing is the
    caller's business, keeping this output cram-stable). *)

val pp_trace : Format.formatter -> Dynvote_chaos.Schedule.step list -> unit

val pp : Format.formatter -> Checker.report -> unit
(** One verdict block: the summary line, plus schedule / violations /
    replay confirmation for counterexamples. *)

val pp_expectation : Format.formatter -> Checker.report -> unit
(** The verdict measured against the policy's [expect_safe] flag. *)

val pp_workers : Format.formatter -> Dynvote_exec.Pool.steal_stats array -> unit
(** One line per work-stealing worker: continuations executed, steals,
    failed steals, deque high-water.  Scheduling-dependent — keep it off
    cram-pinned stdout (the CLI prints it on stderr under [-v]). *)

val steal_totals :
  Dynvote_exec.Pool.steal_stats array -> Dynvote_exec.Pool.steal_stats
(** The componentwise sum ({!Dynvote_exec.Pool.add_steal_stats}) over
    all workers. *)
