(* One spec, three checkers — differentially.

   lib/invariant/spec.ml is the single executable statement of the
   paper's safety contract; the chaos oracle, the model checker and the
   live audit's log replay are adapters over it.  This suite replays the
   recorded counterexample corpus (the shrunk two-site TDV trace, the
   mid-commit brain split, and the model checker's own §3
   counterexample) through all three evaluation paths and demands
   identical verdicts:

   - the chaos path: {!Harness.run}, the spec fed online from the
     cluster's commit-witness hook and client outcomes, final fork scan;
   - the checker path: a step-at-a-time session with the spec evaluated
     after every transition, exactly as the explorer does;
   - the audit path: {!Spec.replay} over a recorded event log
     (commit / intent / outcome events plus final stores), exactly as
     the live service's crash audit replays per-node operation logs.

   Before the spec extraction these were three in-place implementations
   that could drift; now divergence on any corpus trace fails here. *)

module Spec = Dynvote_invariant.Spec
module Harness = Dynvote_chaos.Harness
module Oracle = Dynvote_chaos.Oracle
module Schedule = Dynvote_chaos.Schedule
module Fault_plan = Dynvote_chaos.Fault_plan
module Checker = Dynvote_mc.Checker
module Cluster = Dynvote_msgsim.Cluster
module Node = Dynvote_msgsim.Node

let sorted vs = List.sort compare vs

let check_verdicts name expected actual =
  if sorted expected <> sorted actual then
    Alcotest.failf "%s: verdicts diverge: %a vs %a" name
      Fmt.(Dump.list Oracle.pp_violation)
      expected
      Fmt.(Dump.list Oracle.pp_violation)
      actual

(* The audit path: drive the schedule through a session while recording
   the event log the live audit would have recovered — commit events
   from the cluster's witness hook (chained through to the session's
   own oracle so the online evaluation is undisturbed), write/read
   outcome events from each client operation's outcome, intents for
   writes that aborted — then replay the record through the bare spec. *)
let replay_recorded config steps =
  let session = Harness.make_session config in
  let cluster = Harness.cluster session in
  let oracle = Harness.oracle session in
  let events = ref [] in
  let add ev = events := ev :: !events in
  Cluster.set_commit_witness cluster (fun site replica ->
      add (Spec.Replay_commit { site; replica });
      Spec.witness oracle site replica);
  let writes = ref 0 in
  let ops (r : Harness.result) = r.Harness.granted + r.Harness.denied + r.Harness.aborted in
  List.iter
    (fun step ->
      let before = Harness.session_result session in
      Harness.apply_step session step;
      let after = Harness.session_result session in
      let aborted = after.Harness.aborted > before.Harness.aborted in
      if ops after > ops before then begin
        let granted, content = Harness.last_op session in
        match step with
        | Schedule.Write _ | Schedule.Crash_coordinator _ ->
            incr writes;
            let content = Printf.sprintf "w%d" !writes in
            if aborted then add (Spec.Replay_intent { content })
            else add (Spec.Replay_write { granted; content })
        | Schedule.Read at -> add (Spec.Replay_read { at; granted; content })
        | _ -> ()
      end)
    steps;
  let final =
    Site_set.fold
      (fun site acc ->
        let node = Cluster.node cluster site in
        (site, Node.data_version node, Node.content node) :: acc)
      (Cluster.universe cluster) []
  in
  let spec =
    Spec.replay ~initial_content:config.Harness.initial_content ~final
      (List.rev !events)
  in
  Spec.violations spec

(* The checker path: the explorer's per-state evaluation — apply a
   step, evaluate the spec against the cluster, repeat. *)
let session_stepwise config steps =
  let session = Harness.make_session config in
  let cluster = Harness.cluster session in
  let oracle = Harness.oracle session in
  Oracle.check_step oracle cluster;
  List.iter
    (fun step ->
      Harness.apply_step session step;
      Oracle.check_step oracle cluster)
    steps;
  Oracle.violations oracle

let run_chaos config steps =
  let r, _ = Harness.run config { Schedule.steps; faults = Fault_plan.silent } in
  r.Harness.violations

let three_ways name config steps =
  let chaos = run_chaos config steps in
  let stepwise = session_stepwise config steps in
  let audit = replay_recorded config steps in
  check_verdicts (name ^ ": chaos vs stepwise") chaos stepwise;
  check_verdicts (name ^ ": chaos vs audit replay") chaos audit;
  chaos

(* --- The corpus --- *)

let two_sites flavor =
  {
    (Harness.default_config ~flavor ()) with
    Harness.universe = Site_set.of_list [ 0; 1 ];
    segment_of = (fun _ -> 0);
  }

(* The shrunk tdv killer from the chaos suite:
   [crash 1; write@0; crash 0; restart 1; write@1]. *)
let minimal_trace =
  List.map (Schedule.step_of_int ~n_sites:2) [ 13; 0; 12; 17; 1 ]

let test_minimal_trace () =
  let violations = three_ways "tdv" (two_sites Decision.tdv_flavor) minimal_trace in
  Alcotest.(check bool) "tdv: the corpus trace still violates" true
    (List.exists (function Spec.Generation_conflict _ -> true | _ -> false)
       violations);
  List.iter
    (fun (name, flavor) ->
      let violations = three_ways name (two_sites flavor) minimal_trace in
      Alcotest.(check int) (name ^ ": clean on all three paths") 0
        (List.length violations))
    [
      ("dv", Decision.dv_flavor);
      ("ldv", Decision.ldv_flavor);
      ("tdv-safe", Decision.tdv_safe_flavor);
    ]

(* The mid-commit brain split (the atomic-update requirement): violating
   with commits torn mid-wave, clean under the paper's model. *)
let mid_commit_steps crash_site =
  Schedule.
    [ Partition 0b00111; Crash_coordinator 0; Heal; Crash crash_site; Write 3 ]

let test_mid_commit () =
  let unsafe =
    {
      (Harness.default_config ()) with
      Harness.crash_point = `Mid_commit;
      expose_commits = true;
    }
  in
  List.iter
    (fun crash_site ->
      let steps = mid_commit_steps crash_site in
      let violations =
        three_ways (Printf.sprintf "mid-commit %d" crash_site) unsafe steps
      in
      Alcotest.(check bool) "generation committed twice on all three paths" true
        (List.exists (function Spec.Generation_conflict _ -> true | _ -> false)
           violations);
      let clean =
        three_ways
          (Printf.sprintf "after-decide %d" crash_site)
          (Harness.default_config ()) steps
      in
      Alcotest.(check int) "clean under the paper's model on all three paths" 0
        (List.length clean))
    [ 1; 2 ]

(* The model checker's own §3 counterexample: whatever minimum-length
   schedule the search finds must carry identical verdicts through all
   three paths (the checker already cross-validates against {!run};
   this adds the audit-replay path). *)
let test_mc_counterexample () =
  let p =
    match Harness.policy_of_string "tdv" with
    | Some p -> p
    | None -> Alcotest.fail "no tdv policy"
  in
  let config = Checker.paper_config ~flavor:p.Harness.flavor () in
  let report = Checker.check ~policy:p ~depth:5 config in
  match report.Checker.verdict with
  | Checker.Counterexample { schedule; violations; replay_matches; _ } ->
      Alcotest.(check bool) "checker replay matches" true replay_matches;
      let steps = schedule.Schedule.steps in
      let chaos = three_ways "mc counterexample" config steps in
      check_verdicts "mc counterexample: explorer vs chaos" violations chaos
  | _ -> Alcotest.fail "tdv counterexample not found at depth 5"

let suite =
  [
    Alcotest.test_case "minimal tdv trace: three checkers agree" `Quick
      test_minimal_trace;
    Alcotest.test_case "mid-commit split: three checkers agree" `Quick
      test_mid_commit;
    Alcotest.test_case "mc counterexample: three checkers agree" `Quick
      test_mc_counterexample;
  ]
