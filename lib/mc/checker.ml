(* The policy-level entry point: run the explorer for one policy, and if
   it finds a counterexample, replay it through the chaos harness to
   confirm the two agree — the checker's traces are Schedule steps
   precisely so this replay is verbatim. *)

module Cluster = Dynvote_msgsim.Cluster
module Harness = Dynvote_chaos.Harness
module Oracle = Dynvote_chaos.Oracle
module Schedule = Dynvote_chaos.Schedule
module Fault_plan = Dynvote_chaos.Fault_plan

(* The paper's §3 four-copy example: A, B on one carrier-sense segment,
   C and D each alone on their own. *)
let paper_segment_of site = match site with 0 | 1 -> 0 | 2 -> 1 | _ -> 2

let make_config ?(flavor = Decision.tdv_flavor) ?(delivery = Cluster.Quiet)
    ~universe ~segment_of () =
  {
    Harness.flavor;
    universe;
    segment_of;
    delivery;
    initial_content = "g0";
    crash_point = `After_decide;
    expose_commits = false;
  }

let paper_config ?flavor () =
  make_config ?flavor ~universe:(Site_set.of_list [ 0; 1; 2; 3 ])
    ~segment_of:paper_segment_of ()

type verdict =
  | Clean of { closed : bool }
  | Counterexample of {
      schedule : Schedule.t;
      violations : Oracle.violation list;
      replay : Oracle.violation list;
      replay_matches : bool;
    }
  | Inconclusive

type report = {
  policy : Harness.policy;
  depth : int;
  result : Explorer.result;
  verdict : verdict;
}

let check ?space ?por ?max_states ?progress ?jobs ~(policy : Harness.policy) ~depth
    config =
  let config : Harness.config = { config with Harness.flavor = policy.Harness.flavor } in
  let result =
    Explorer.search ?space ?por ?max_states ?progress ?jobs ~config ~depth ()
  in
  let verdict =
    match result.Explorer.outcome with
    | Explorer.Safe { closed } -> Clean { closed }
    | Explorer.Out_of_budget -> Inconclusive
    | Explorer.Violation { trace; violations } ->
        (* The explorer searched under silent faults, so the replay gets
           the same: an identical step sequence through the identical
           transition code must surface the identical violations. *)
        let schedule = { Schedule.steps = trace; faults = Fault_plan.silent } in
        let replayed, _stats = Harness.run config schedule in
        let replay = replayed.Harness.violations in
        Counterexample { schedule; violations; replay; replay_matches = replay = violations }
  in
  { policy; depth; result; verdict }

let verdict_ok report =
  match report.verdict with
  | Clean _ | Inconclusive -> true
  | Counterexample { replay_matches; _ } ->
      replay_matches && not report.policy.Harness.expect_safe
