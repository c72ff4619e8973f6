(** Bounded explicit-state search: a DFS to the requested bound over the
    {!Space} alphabet, pruned by a seen-state store of canonical
    {!Fingerprint} hashes, with the safety oracle checked at every
    state and commuting fault actions reduced by {!Por}.  The bound is
    searched once; iterative deepening from bound 1 runs only after a
    violation (for a shortest counterexample) or a spent state budget
    (for the deepest completed bound). *)

type outcome =
  | Safe of { closed : bool }
      (** no reachable violation within the bound; [closed] means the
          search of the bound exhausted the entire reachable space
          (under the alphabet), so no depth would ever find one *)
  | Violation of {
      trace : Dynvote_chaos.Schedule.step list;
      violations : Dynvote_chaos.Oracle.violation list;
    }
      (** a minimum-length path to an unsafe state (a bound that finds
          one is followed by iterative deepening from bound 1, which
          finds shortest counterexamples first) *)
  | Out_of_budget  (** the seen store hit [max_states] *)

type result = {
  outcome : outcome;
  depth : int;
      (** for a safe outcome (closed or not), the requested bound; for
          a violation, the trace length; for out-of-budget, the last
          completed bound *)
  visited : int;  (** states stored, cumulative over all bounds searched *)
  distinct : int;  (** seen-store size of the bound the outcome comes from *)
  transitions : int;  (** actions applied, cumulative over all bounds searched *)
  peak_seen : int;  (** largest seen-store size — the memory high-water *)
  spilled : int;
      (** peak entries in the store's on-disk spill tier (0 unless
          [DYNVOTE_MC_SPILL] enables spilling; see {!Striped_seen}) *)
  workers : Dynvote_exec.Pool.steal_stats array;
      (** per-worker frontier statistics (continuations executed, steals,
          failed steals, deque high-water), summed over the bounds
          searched; one entry per worker *)
}

val search :
  ?space:Space.t ->
  ?symmetry:bool ->
  ?por:bool ->
  ?max_states:int ->
  ?progress:(depth:int -> distinct:int -> transitions:int -> unit) ->
  ?jobs:int ->
  config:Dynvote_chaos.Harness.config ->
  depth:int ->
  unit ->
  result
(** Explore from the initial state of a fresh session of [config].
    [symmetry] (within-segment site relabeling in the fingerprint)
    defaults to on exactly when the flavor has no lexicographic
    tie-break — relabeling does not commute with the site ordering.
    [por] (default on) explores commuting fault actions in sorted order
    only; it changes no verdict, no counterexample length and no
    distinct-state count on a completed bound — only [transitions] and
    the choice among equally short counterexamples (see {!Por}).
    [max_states] (default 1_000_000) bounds the seen store.  [progress]
    is called after each searched bound: the requested one first, then
    any deepening iterations ([transitions] cumulative).

    [jobs] (default 1) is the number of workers of the work-first
    frontier: each drives its own private session (cluster and oracle
    are mutable, never shared), descends into admitted successors in
    place, and leaves the untried siblings of the state it descends from
    as one stealable continuation (its trace, budget and remaining
    {!Por}-filtered steps) on a Chase–Lev deque.  Only a steal pays a
    rollback to the root plus a replay of the stolen trace.  All workers
    deduplicate through one lock-striped fingerprint store, so
    [distinct] and the [max_states] budget stay global.  The verdict —
    [Safe]/[Violation]/[Out_of_budget], the [closed] flag, the trace
    length, and [distinct] on a [Safe] outcome — is independent of
    [jobs]; [visited], [transitions], [peak_seen], [distinct] on a
    [Violation] (the store size when the search stopped), [workers] and
    the choice among equally short counterexamples may differ.  At
    [jobs = 1] (and inside a pool worker) nothing is ever stolen: the
    traversal is the sequential DFS through one uncontended store shard,
    byte-identical to every release (the cram tests pin it). *)
