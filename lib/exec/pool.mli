(** Fixed-size domain pool for the parallel compute paths: the
    availability study and independent-seed replications fan out over
    {!map_array}, the bounded model checker's frontier over
    {!run_stealing}.

    Built directly on OCaml 5 [Domain] — no external dependencies.  A
    pool owns [jobs - 1] worker domains (the caller participates as the
    remaining worker); [map_array]/[map_list] fan items out over the
    workers through a shared atomic cursor and join the results {e by
    item index}, never by completion order, so the output is
    deterministic whenever the per-item function is.  Exceptions raised
    by the function are re-raised in the caller, lowest failing index
    first.

    Nested pools are refused at the source: a worker that itself calls
    {!create} (directly or through {!with_pool}) gets a sequential
    [jobs = 1] pool, so the parallel entry points can be layered without
    domain explosion ([Study.replicate ~jobs] over [Study.run ~jobs],
    the bench over both). *)

type t

val recommended : unit -> int
(** [Domain.recommended_domain_count ()] clamped to [1 .. max_jobs]. *)

val max_jobs : int
(** Upper bound on any pool size (64): beyond the hardware parallelism
    extra domains only add scheduling noise. *)

val default_jobs : unit -> int
(** The [DYNVOTE_JOBS] environment variable when it parses to a positive
    integer (clamped to [max_jobs]), {!recommended} otherwise. *)

val create : ?jobs:int -> unit -> t
(** A pool of [jobs] workers ([default_jobs ()] when omitted; values are
    clamped to [1 .. max_jobs]).  Called from inside another pool's
    worker, the result is always sequential ([jobs t = 1]) — see the
    nested-pool rule above.  Idle workers block on a condition variable;
    a pool costs nothing between calls. *)

val jobs : t -> int
(** The parallelism this pool actually provides (1 = sequential). *)

val shutdown : t -> unit
(** Join the worker domains.  Idempotent.  Using the pool afterwards
    raises [Invalid_argument]. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exceptions). *)

type steal_stats = {
  tasks_executed : int;  (** tasks this worker ran (dispatched, stolen or reclaimed) *)
  steals : int;  (** successful steals from another worker's deque *)
  failed_steals : int;  (** steal attempts that found nothing or lost a race *)
  max_deque_depth : int;  (** high-water mark of this worker's own deque *)
}

val zero_steal_stats : steal_stats

val add_steal_stats : steal_stats -> steal_stats -> steal_stats
(** Componentwise sum; [max_deque_depth] takes the max. *)

val run_stealing :
  t ->
  ?seed:int ->
  roots:'task array ->
  init:(int -> 'state) ->
  run:('state -> push:('task -> unit) -> reclaim:(unit -> 'task option) -> 'task -> unit) ->
  unit ->
  steal_stats array
(** Run a dynamically growing task frontier to quiescence over all
    workers.  Each worker owns a {!Deque} (Chase–Lev: the owner pushes
    and pops LIFO at the bottom, thieves steal FIFO from the top, with
    randomized victim selection seeded by [seed]); [roots] are dealt
    round-robin across the deques; [init w] builds worker [w]'s private
    state once; [run state ~push ~reclaim task] executes one task.

    The intended protocol is work-first: [run] pushes a {e continuation}
    (the part of its work it has not started) onto the executing
    worker's own deque, goes on with the rest itself, and afterwards
    calls [reclaim] — a LIFO pop of that deque.  [Some c] is the
    worker's own newest push, which it then runs inline; [None] means a
    thief took it, and then every older continuation on the deque was
    taken too (the deque is empty), so [run] should unwind and return.
    Tasks left on the deque when [run] returns are dispatched like
    roots.  Every pushed task is executed exactly once: reclaimed,
    dispatched or stolen.

    Returns when every task has been executed: termination is detected
    by a global outstanding-task counter (incremented on [push] before
    the task is visible, decremented by a successful [reclaim] or after
    a dispatched task's [run] returns), so a worker observing zero with
    an empty deque can exit — no task exists and none can appear.  An
    exception from [run] or [init] aborts the schedule and is re-raised
    (first failing worker by index).

    The per-worker statistics are returned in worker-index order;
    [tasks_executed] counts dispatched, stolen and reclaimed tasks.
    Scheduling (which worker runs which task, and in what order) is
    nondeterministic above one worker — the caller's [run] must make
    the aggregate result order-independent.  Inside another pool's
    worker the schedule degrades to one sequential LIFO worker, in
    keeping with the no-nested-pools rule. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array t f xs] is [Array.map f xs] computed by all workers.
    Items are claimed through a shared cursor (dynamic load balancing);
    results land at their item's index.  [f] runs with {!in_worker} set.
    The first exception by item index is re-raised after every worker
    has drained. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** {!map_array} for lists, preserving order. *)

val in_worker : unit -> bool
(** Whether the calling domain is currently executing a pool task (the
    caller's own participation included).  Library code uses this to
    fall back to sequential execution instead of nesting pools. *)
