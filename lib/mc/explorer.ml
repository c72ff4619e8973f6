(* Bounded explicit-state exploration: a DFS to the requested bound over
   the enabled actions, with a seen-state table and the safety oracle
   checked at every state.

   One chaos session carries a worker's whole search; branching rewinds
   it with {!Dynvote_chaos.Harness.checkpoint}/[rollback], so every
   explored path executes the exact code a chaos replay would.  The seen
   table maps the hash of a canonical fingerprint, which each worker's
   {!Fingerprint.hasher} computes as it writes the state and no string
   is built for, to the largest remaining-depth budget it was expanded
   with, tagged by the {!Por} context the expansion was filtered under:
   a revisit with no more budget under a covering context is pruned,
   anything else is re-expanded (the transposition rule that keeps a
   depth-bounded search — and partial-order reduction under state
   caching — complete up to the bound; see {!Striped_seen.claim_hash}).

   Partial-order reduction (on by default, [?por]) explores commuting
   fault actions in sorted order only: every pruned interleaving is a
   permutation of an explored one with identical length, end state and
   violation observations (the commutation proof lives in {!Por}).  The
   set of distinct states within a completed bound is unchanged —
   reduction removes transitions, not states — so Safe verdicts report
   identical state counts with the reduction on or off, and deepening
   still finds a minimum-length counterexample first.

   The requested bound D is searched once, from a fresh store: for a
   safe bound that one pass is the whole search, and its distinct count
   is exactly what a last deepening iteration would report.  Iterative
   deepening (bounds 1, 2, ..., each from a fresh store) runs only
   after a pass that
   - finds a violation, so that the reported counterexample is one of
     minimum length: the first bound to find one gives it, and a
     deepening that reaches D takes the pass's own result;
   - spends the state budget, so that the report names the deepest
     bound that completed (again reusing the pass at D).
   A pass that never hits the depth cutoff has exhausted the entire
   reachable space (under the configured alphabet): it reports the
   space [closed] at the requested bound, without deepening to find the
   shallowest bound that would also close it.

   One search runs every job count: a work-first frontier (Cilk-5's
   principle, Frigo, Leiserson & Randall, PLDI 1998) over
   {!Dynvote_exec.Pool.run_stealing}.  A worker descends into each
   admitted successor in place, exactly as a sequential DFS does; before
   it descends, the untried siblings of the state it leaves become one
   stealable continuation on its Chase–Lev deque, carrying the reversed
   trace to that state (tail-shared, so pushing is O(1)), its depth
   budget and its remaining {!Por}-filtered steps.  After the subtree
   the worker reclaims the continuation with a LIFO pop and goes on with
   the next sibling.  A [None] from the pop means a thief took it — and,
   thieves taking from the top, every older continuation of this worker
   too — so the worker unwinds and looks for work.  A thief rolls its
   own session back to the root and replays the stolen trace (through
   the same [apply_step]/[check_step] pair as the first execution, so
   cluster and oracle state are bit-identical), then expands the
   remaining steps.  Rollback-plus-replay is therefore paid only on a
   steal; at one worker nothing is ever stolen and the traversal is the
   plain sequential DFS, step for step.

   Each worker drives its own private session (cluster and oracle are
   mutable and never shared); deduplication goes through one
   lock-striped {!Striped_seen} fingerprint store, so the
   [distinct]/[max_states] accounting stays global, and the store's
   claim rule carries everything determinism-critical — the
   Safe/Out_of_budget/Violation verdict, the closed flag, trace lengths,
   [distinct] on completed bounds.  Only [visited], [transitions], the
   steal statistics and the choice among equally short counterexamples
   vary with the interleaving above one worker.  At one worker the store
   is a single uncontended shard, so the spill tier and the admission
   accounting behave as they always have. *)

module Cluster = Dynvote_msgsim.Cluster
module Harness = Dynvote_chaos.Harness
module Oracle = Dynvote_chaos.Oracle
module Schedule = Dynvote_chaos.Schedule
module Pool = Dynvote_exec.Pool

type outcome =
  | Safe of { closed : bool }
  | Violation of { trace : Schedule.step list; violations : Oracle.violation list }
  | Out_of_budget

type result = {
  outcome : outcome;
  depth : int;
  visited : int;
  distinct : int;
  transitions : int;
  peak_seen : int;
  spilled : int;
  workers : Pool.steal_stats array;
}

(* Symmetry defaults off for tie-break flavors: site relabeling commutes
   with the transition relation only without the lexicographic tie-break
   (site identity is load-bearing in the ordering). *)
let resolve_symmetry ?symmetry (config : Harness.config) =
  match symmetry with
  | Some s -> s
  | None -> not config.Harness.flavor.Decision.tie_break

let perms_for ~symmetry (config : Harness.config) =
  if symmetry then
    Fingerprint.segment_perms ~universe:config.Harness.universe
      ~segment_of:config.Harness.segment_of
  else [ Fingerprint.identity ~n_sites:(Site_set.max_elt config.Harness.universe + 1) ]

(* The report path's accounting invariant: every admitted state was
   counted exactly once, and nothing the budget bounced was. *)
let checked_distinct seen =
  let distinct = Striped_seen.distinct seen in
  assert (Striped_seen.length seen = distinct);
  distinct

(* A continuation: the untried successors of one state, stealable as a
   unit.  [trace] reaches the state from the root (reversed: deepest
   step first); [remaining] is the state's depth budget; [steps] are its
   successors not yet applied, already reduced by {!Por}. *)
type cont = {
  trace : Schedule.step list;
  remaining : int;
  steps : Schedule.step list;
}

(* One worker's private side of the search; only the seen store and the
   stop flag are shared.  The counters are cumulative over the bounds
   searched, the flags per bound. *)
type worker = {
  session : Harness.session;
  cluster : Cluster.t;
  oracle : Oracle.t;
  hasher : Fingerprint.hasher;  (* hashes every state this worker reaches *)
  root : Harness.checkpoint;
  mutable visited : int;
  mutable transitions : int;
  mutable cutoff : bool;
  mutable budget_hit : bool;
  mutable violation : (Schedule.step list * Oracle.violation list) option;
}

let make_worker config ~gc ~perms =
  let session = Harness.make_session config in
  {
    session;
    cluster = Harness.cluster session;
    oracle = Harness.oracle session;
    hasher = Fingerprint.hasher ~gc ~perms ();
    root = Harness.checkpoint session;
    visited = 0;
    transitions = 0;
    cutoff = false;
    budget_hit = false;
    violation = None;
  }

(* Abandons a worker's descent: the search stopped, or a thief took the
   continuation the worker would have gone back to. *)
exception Unwind

let search ?(space = Space.default) ?symmetry ?(por = true) ?(max_states = 1_000_000)
    ?progress ?(jobs = 1) ~(config : Harness.config) ~depth () =
  let symmetry = resolve_symmetry ?symmetry config in
  let perms = perms_for ~symmetry config in
  let gc = Space.amnesia_free space in
  let fingerprint w = Fingerprint.hash w.hasher w.session in
  (* [filter] is the {!Por.rank} of the action a state was entered by (0
     at the root and with the reduction off); a nonzero [covered] narrows
     the expansion to the sleep difference against an already-recorded
     context. *)
  let reduce ~filter ~covered steps =
    if not por then steps
    else if covered = 0 then Por.filter ~ctx:filter steps
    else Por.filter_uncovered ~ctx:filter ~covered steps
  in
  Pool.with_pool ~jobs (fun pool ->
      let workers = Array.init (Pool.jobs pool) (fun _ -> make_worker config ~gc ~perms) in
      let first = workers.(0) in
      let sum f = Array.fold_left (fun acc w -> acc + f w) 0 workers in
      let bounds = ref 0 in
      let peak_seen = ref 0 in
      let spilled = ref 0 in
      let steal_stats = ref (Array.map (fun _ -> Pool.zero_steal_stats) workers) in
      let result ~distinct outcome depth =
        {
          outcome;
          depth;
          (* every bound admits the root once *)
          visited = !bounds + sum (fun w -> w.visited);
          distinct;
          transitions = sum (fun w -> w.transitions);
          peak_seen = !peak_seen;
          spilled = !spilled;
          workers = !steal_stats;
        }
      in
      (* One bound from a fresh store: its verdict and its distinct count. *)
      let search_to ~root_fp ~root_steps bound =
        let shards = if Array.length workers = 1 then Some 1 else None in
        let seen = Striped_seen.create ?shards ~max_states () in
        ignore (Striped_seen.claim_hash seen root_fp ~budget:bound ~ctx:0);
        incr bounds;
        let stop = Atomic.make false in
        let halt () =
          Atomic.set stop true;
          raise_notrace Unwind
        in
        let rec descend w ~push ~reclaim trace remaining ~filter ~covered =
          if remaining = 0 then w.cutoff <- true
          else
            let ck = Harness.checkpoint w.session in
            expand w ~push ~reclaim ~ck trace remaining
              (reduce ~filter ~covered (Space.enabled space ~config ~cluster:w.cluster))
        and expand w ~push ~reclaim ~ck trace remaining = function
          | [] -> ()
          | step :: rest ->
              if Atomic.get stop then raise_notrace Unwind;
              w.transitions <- w.transitions + 1;
              Harness.apply_step w.session step;
              Oracle.check_step w.oracle w.cluster;
              if not (Oracle.is_safe w.oracle) then begin
                w.violation <- Some (List.rev (step :: trace), Oracle.violations w.oracle);
                halt ()
              end;
              let ctx = if por then Por.rank step else 0 in
              (match Striped_seen.claim_hash seen (fingerprint w) ~budget:(remaining - 1) ~ctx with
              | Striped_seen.Prune -> ()
              | Striped_seen.Budget ->
                  w.budget_hit <- true;
                  halt ()
              | Striped_seen.Expand { filter; covered } ->
                  w.visited <- w.visited + 1;
                  let siblings = match rest with [] -> false | _ :: _ -> true in
                  if siblings then push { trace; remaining; steps = rest };
                  descend w ~push ~reclaim (step :: trace) (remaining - 1) ~filter ~covered;
                  (* [Some] is the continuation just pushed: go on with
                     [rest] here.  [None]: a thief took it, and every
                     older one too. *)
                  if siblings && Option.is_none (reclaim ()) then raise_notrace Unwind);
              Harness.rollback w.session ck;
              expand w ~push ~reclaim ~ck trace remaining rest
        in
        (* A task is a continuation; reposition the worker's session at
           its state (a no-op replay for the root's). *)
        let run w ~push ~reclaim c =
          if not (Atomic.get stop) then begin
            Harness.rollback w.session w.root;
            List.iter
              (fun step ->
                Harness.apply_step w.session step;
                Oracle.check_step w.oracle w.cluster)
              (List.rev c.trace);
            let ck = Harness.checkpoint w.session in
            try expand w ~push ~reclaim ~ck c.trace c.remaining c.steps with Unwind -> ()
          end
        in
        Array.iter
          (fun w ->
            w.cutoff <- false;
            w.budget_hit <- false;
            w.violation <- None)
          workers;
        let stats =
          Pool.run_stealing pool ~seed:bound
            ~roots:[| { trace = []; remaining = bound; steps = root_steps } |]
            ~init:(fun i -> workers.(i))
            ~run ()
        in
        steal_stats := Array.map2 Pool.add_steal_stats !steal_stats stats;
        let distinct = checked_distinct seen in
        peak_seen := max !peak_seen distinct;
        spilled := max !spilled (Striped_seen.spilled seen);
        Striped_seen.close seen;
        (match progress with
        | Some f -> f ~depth:bound ~distinct ~transitions:(sum (fun w -> w.transitions))
        | None -> ());
        (* A violation outranks the state budget (the more informative
           verdict); among workers' equally short counterexamples the
           lowest worker index wins — which one that is depends on the
           schedule above one worker. *)
        let verdict =
          match Array.find_map (fun w -> w.violation) workers with
          | Some (trace, violations) -> `Found (trace, violations)
          | None ->
              if Array.exists (fun w -> w.budget_hit) workers then `Budget
              else if Array.exists (fun w -> w.cutoff) workers then `Cutoff
              else `Closed
        in
        (verdict, distinct)
      in
      let report bound (verdict, distinct) =
        match verdict with
        | `Found (trace, violations) ->
            result ~distinct (Violation { trace; violations }) (List.length trace)
        | `Budget -> result ~distinct Out_of_budget (bound - 1)
        | `Closed -> result ~distinct (Safe { closed = true }) bound
        | `Cutoff -> result ~distinct (Safe { closed = false }) bound
      in
      (* The initial state could in principle already violate (it never
         does for a sane config, but the oracle decides that, not us). *)
      Oracle.check_step first.oracle first.cluster;
      if not (Oracle.is_safe first.oracle) then
        result ~distinct:0 (Violation { trace = []; violations = Oracle.violations first.oracle }) 0
      else if depth <= 0 then result ~distinct:0 (Safe { closed = false }) 0
      else begin
        (* The root never changes across bounds. *)
        Harness.rollback first.session first.root;
        let root_fp = fingerprint first in
        let root_steps =
          reduce ~filter:0 ~covered:0 (Space.enabled space ~config ~cluster:first.cluster)
        in
        let pass = search_to ~root_fp ~root_steps depth in
        match fst pass with
        | `Cutoff | `Closed -> report depth pass
        | `Found _ | `Budget ->
            (* Deepen for the shortest counterexample, or the deepest
               bound the budget completes; bound D is the pass. *)
            let rec deepen bound =
              if bound = depth then report depth pass
              else
                match search_to ~root_fp ~root_steps bound with
                | `Cutoff, _ -> deepen (bound + 1)
                | outcome -> report bound outcome
            in
            deepen 1
      end)
