(* Bounded model checker: the published-TDV hole is found as a
   minimum-length counterexample that replays verbatim in the chaos
   harness; the corrected flavors exhaust small scopes clean; the search
   is deterministic; symmetry reduction only shrinks the state count.
   Set DYNVOTE_MC_DEPTH to also sweep the paper's four-copy example at a
   chosen bound (the cram test covers depth 8 of that scope). *)

module Checker = Dynvote_mc.Checker
module Explorer = Dynvote_mc.Explorer
module Space = Dynvote_mc.Space
module Striped_seen = Dynvote_mc.Striped_seen
module Harness = Dynvote_chaos.Harness

let policy name =
  match Harness.policy_of_string name with
  | Some p -> p
  | None -> Alcotest.failf "no policy %S" name

(* Two sites on one segment: the smallest scope exhibiting the hole. *)
let two_sites flavor =
  Checker.make_config ~flavor ~universe:(Site_set.of_list [ 0; 1 ])
    ~segment_of:(fun _ -> 0) ()

let config_for p = two_sites p.Harness.flavor

let test_tdv_hole_found () =
  let p = policy "tdv" in
  let report = Checker.check ~policy:p ~depth:5 (config_for p) in
  (match report.Checker.verdict with
  | Checker.Counterexample { schedule; violations; replay_matches; _ } ->
      Alcotest.(check bool) "replays identically in the harness" true
        replay_matches;
      Alcotest.(check bool) "at most five steps" true
        (List.length schedule.Dynvote_chaos.Schedule.steps <= 5);
      Alcotest.(check bool) "a violation is reported" true (violations <> [])
  | Checker.Clean _ -> Alcotest.fail "tdv hole not found at depth 5"
  | Checker.Inconclusive -> Alcotest.fail "state budget exhausted");
  Alcotest.(check bool) "counterexample on an expected-unsafe policy is ok" true
    (Checker.verdict_ok report)

let test_safe_policies_clean () =
  List.iter
    (fun name ->
      let p = policy name in
      let report = Checker.check ~policy:p ~depth:6 (config_for p) in
      (match report.Checker.verdict with
      | Checker.Clean _ -> ()
      | Checker.Counterexample { violations; _ } ->
          Alcotest.failf "%s unsafe: %a" name
            Fmt.(Dump.list Dynvote_chaos.Oracle.pp_violation)
            violations
      | Checker.Inconclusive -> Alcotest.failf "%s: budget exhausted" name);
      Alcotest.(check bool) (name ^ " verdict ok") true (Checker.verdict_ok report))
    [ "dv"; "odv"; "tdv-safe" ]

let test_deterministic () =
  let run () =
    Explorer.search ~config:(two_sites Decision.ldv_flavor) ~depth:5 ()
  in
  Alcotest.(check bool) "two searches, identical results" true (run () = run ())

(* Relabeling sites within a segment must never change the verdict, only
   fold equivalent states: same outcome, no larger seen table. *)
let test_symmetry_sound () =
  let config = Checker.paper_config ~flavor:Decision.dv_flavor () in
  let folded = Explorer.search ~symmetry:true ~config ~depth:4 () in
  let plain = Explorer.search ~symmetry:false ~config ~depth:4 () in
  (match (folded.Explorer.outcome, plain.Explorer.outcome) with
  | Explorer.Safe _, Explorer.Safe _ -> ()
  | _ -> Alcotest.fail "dv must be safe at depth 4 with and without symmetry");
  Alcotest.(check bool) "symmetry never grows the state count" true
    (folded.Explorer.distinct <= plain.Explorer.distinct);
  Alcotest.(check bool) "symmetry actually folds states" true
    (folded.Explorer.distinct < plain.Explorer.distinct)

let test_budget_exhaustion () =
  let result =
    Explorer.search ~max_states:50 ~config:(two_sites Decision.dv_flavor)
      ~depth:8 ()
  in
  match result.Explorer.outcome with
  | Explorer.Out_of_budget -> ()
  | _ -> Alcotest.fail "a 50-state budget cannot cover depth 8"

(* Regression: the distinct-state counter must move only on admission.
   The old per-shard tables bumped it on the Budget path too, so under
   contention the reported count drifted past max_states.  Exhaust a
   tiny budget from four workers and demand exact accounting (the
   explorer additionally asserts [length = distinct] internally). *)
let test_budget_no_drift_parallel () =
  let result =
    Explorer.search ~jobs:4 ~max_states:100
      ~config:(Checker.paper_config ~flavor:Decision.tdv_safe_flavor ())
      ~depth:6 ()
  in
  (match result.Explorer.outcome with
  | Explorer.Out_of_budget -> ()
  | _ -> Alcotest.fail "a 100-state budget cannot cover the paper scope");
  Alcotest.(check int) "exactly max_states admitted, none past the cap" 100
    result.Explorer.distinct

(* The partial-order reduction soundness gate: reduced and full
   exploration must produce identical verdicts, counterexample lengths
   and distinct-state counts on a completed bound — at small depth, for
   every distinct policy, sequentially and under a 4-worker pool.  This
   is the empirical half of the commutation proof in lib/mc/por.ml. *)
let test_por_equivalence () =
  (* Equally short counterexamples are interchangeable: the reduction
     (and worker scheduling) may pick a different representative, so a
     violation compares by length and kind, not by its site details. *)
  let kind = function
    | Dynvote_chaos.Oracle.Generation_conflict _ -> "generation"
    | Dynvote_chaos.Oracle.Non_monotone_op _ -> "op"
    | Dynvote_chaos.Oracle.Version_regression _ -> "version"
    | Dynvote_chaos.Oracle.Stale_read _ -> "read"
    | Dynvote_chaos.Oracle.Content_fork _ -> "fork"
  in
  let summary (r : Explorer.result) =
    match r.Explorer.outcome with
    | Explorer.Safe { closed } -> `Safe (closed, r.Explorer.distinct)
    | Explorer.Violation { trace; violations } ->
        `Violation (List.length trace, List.sort compare (List.map kind violations))
    | Explorer.Out_of_budget -> `Out_of_budget
  in
  List.iter
    (fun name ->
      let p = policy name in
      let config =
        {
          (Checker.paper_config ()) with
          Harness.flavor = p.Harness.flavor;
        }
      in
      let run ~por ~jobs = Explorer.search ~por ~jobs ~config ~depth:5 () in
      let full = summary (run ~por:false ~jobs:1) in
      List.iter
        (fun jobs ->
          let reduced = summary (run ~por:true ~jobs) in
          if reduced <> full then
            Alcotest.failf "%s (-j%d): reduced and full verdicts differ" name jobs)
        [ 1; 4 ];
      (* Transitions must never grow on the policy's own search. *)
      let t_full = (run ~por:false ~jobs:1).Explorer.transitions in
      let t_red = (run ~por:true ~jobs:1).Explorer.transitions in
      Alcotest.(check bool)
        (name ^ ": reduction does not add transitions")
        true (t_red <= t_full))
    [ "dv"; "odv"; "tdv"; "tdv-safe" ]

(* The fingerprint store in isolation: admission caps, the
   context-tagged transposition rule, and the spill tier. *)
let test_seen_store_claim () =
  let t = Striped_seen.create ~shards:1 ~max_states:3 () in
  let fp i = Printf.sprintf "state-%d" i in
  (* Admission: exactly max_states distinct fingerprints, then Budget —
     and the bounced state is never counted. *)
  for i = 1 to 3 do
    match Striped_seen.claim t (fp i) ~budget:4 ~ctx:0 with
    | Striped_seen.Expand { filter; covered } ->
        Alcotest.(check int) "fresh expansion under own ctx" 0 filter;
        Alcotest.(check int) "fresh expansion is full" 0 covered
    | _ -> Alcotest.failf "state %d should admit" i
  done;
  (match Striped_seen.claim t (fp 4) ~budget:4 ~ctx:0 with
  | Striped_seen.Budget -> ()
  | _ -> Alcotest.fail "4th state must bounce");
  Alcotest.(check int) "bounced state not counted" 3 (Striped_seen.distinct t);
  Alcotest.(check int) "length = distinct" 3 (Striped_seen.length t);
  (* Transposition: smaller budget prunes, larger re-expands. *)
  (match Striped_seen.claim t (fp 1) ~budget:2 ~ctx:0 with
  | Striped_seen.Prune -> ()
  | _ -> Alcotest.fail "covered revisit must prune");
  (match Striped_seen.claim t (fp 1) ~budget:6 ~ctx:0 with
  | Striped_seen.Expand { covered = 0; _ } -> ()
  | _ -> Alcotest.fail "deeper revisit must re-expand in full");
  Alcotest.(check int) "revisits never recount" 3 (Striped_seen.distinct t);
  Striped_seen.close t;
  (* Context conflict at a covered budget: only the difference, and the
     new statement joins the stored pair. *)
  let t = Striped_seen.create ~shards:1 ~max_states:10 () in
  let ctx_a = 0x1_0001 and ctx_b = 0x1_0002 in
  (match Striped_seen.claim t "conflicted" ~budget:4 ~ctx:ctx_a with
  | Striped_seen.Expand { filter; covered } ->
      Alcotest.(check int) "fresh: filter is the incoming ctx" ctx_a filter;
      Alcotest.(check int) "fresh: full expansion" 0 covered
  | _ -> Alcotest.fail "fresh state admits");
  (match Striped_seen.claim t "conflicted" ~budget:4 ~ctx:ctx_b with
  | Striped_seen.Expand { filter; covered } ->
      Alcotest.(check int) "conflict: filter is our ctx" ctx_b filter;
      Alcotest.(check int) "conflict: difference against the stored ctx" ctx_a
        covered
  | _ -> Alcotest.fail "conflicting ctx at covered budget expands difference");
  (match Striped_seen.claim t "conflicted" ~budget:4 ~ctx:ctx_b with
  | Striped_seen.Prune -> ()
  | _ -> Alcotest.fail "joined statement must prune the repeat");
  (match Striped_seen.claim t "conflicted" ~budget:3 ~ctx:0 with
  | Striped_seen.Expand { filter = 0; covered } ->
      Alcotest.(check bool) "unfiltered arrival diffs against a stored ctx" true
        (covered = ctx_a || covered = ctx_b)
  | _ -> Alcotest.fail "unfiltered arrival under covered budget diffs");
  Striped_seen.close t

(* Spilling moves entries to disk without changing a single answer:
   replay one deterministic claim sequence against a resident-only store
   and a spill-at-16 store and demand identical verdicts throughout. *)
let test_seen_store_spill_equivalence () =
  let resident = Striped_seen.create ~shards:1 ~max_states:10_000 () in
  let spilly = Striped_seen.create ~shards:1 ~spill:16 ~max_states:10_000 () in
  let mix i = (i * 2654435761) land 0xfff in
  for i = 0 to 2_000 do
    let fp = Printf.sprintf "s-%d" (mix i) in
    let budget = i mod 7 and ctx = if i mod 3 = 0 then 0 else 0x1_0000 lor (i mod 5) in
    let a = Striped_seen.claim resident fp ~budget ~ctx in
    let b = Striped_seen.claim spilly fp ~budget ~ctx in
    if a <> b then Alcotest.failf "claim %d diverges with spilling on" i
  done;
  Alcotest.(check int) "same distinct count"
    (Striped_seen.distinct resident)
    (Striped_seen.distinct spilly);
  Alcotest.(check bool) "the spill tier actually engaged" true
    (Striped_seen.spilled spilly > 0);
  Striped_seen.close resident;
  Striped_seen.close spilly

(* The same equivalence end-to-end: DYNVOTE_MC_SPILL forces the search's
   seen store onto the disk tier; verdict and statistics must not move. *)
let test_search_spill_equivalence () =
  let config = two_sites Decision.tdv_safe_flavor in
  let plain = Explorer.search ~config ~depth:6 () in
  Unix.putenv "DYNVOTE_MC_SPILL" "64";
  let spilled =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "DYNVOTE_MC_SPILL" "")
      (fun () -> Explorer.search ~config ~depth:6 ())
  in
  Alcotest.(check bool) "identical result up to the spill statistic" true
    ({ plain with Explorer.spilled = 0 } = { spilled with Explorer.spilled = 0 });
  Alcotest.(check bool) "the spill tier actually engaged" true
    (spilled.Explorer.spilled > 0)

(* Frontier-scheduling independence: the explorer's verdict, the
   counterexample length, and the distinct count on a completed bound
   must not depend on how many workers share the work-first frontier —
   for a safe, an unsafe, and a patched policy.  (Transitions may
   differ: which worker first admits a state decides who expands it, and
   POR contexts can differ across interleavings.  The summary
   deliberately excludes them.) *)
let test_jobs_verdict_parity () =
  let summary (r : Explorer.result) =
    match r.Explorer.outcome with
    | Explorer.Safe { closed } -> `Safe (closed, r.Explorer.distinct)
    | Explorer.Violation { trace; _ } -> `Violation (List.length trace)
    | Explorer.Out_of_budget -> `Out_of_budget
  in
  List.iter
    (fun (name, depth) ->
      let p = policy name in
      let config =
        { (Checker.paper_config ()) with Harness.flavor = p.Harness.flavor }
      in
      let run jobs = Explorer.search ~jobs ~config ~depth () in
      let seq = summary (run 1) in
      List.iter
        (fun jobs ->
          if summary (run jobs) <> seq then
            Alcotest.failf "%s: -j%d frontier diverges from -j1" name jobs)
        [ 2; 4 ])
    [ ("dv", 4); ("tdv", 5); ("tdv-safe", 4) ]

(* Golden canonical fingerprints: the hex of {!Fingerprint.canonical}
   after fixed schedules on the §3 topology, pinned byte for byte so a
   rewrite of the serializer cannot silently change what the seen store
   deduplicates.  The cases cover an amnesiac site holding a zeroed
   record, one holding a decodable stale record, a two-group partition,
   the generation-table GC, and dv's two-permutation symmetry group. *)
module Fingerprint = Dynvote_mc.Fingerprint
module Schedule = Dynvote_chaos.Schedule
module Msg_node = Dynvote_msgsim.Node

let hex s = String.fold_left (fun acc c -> acc ^ Printf.sprintf "%02x" (Char.code c)) "" s

let session_after flavor steps =
  let config = Checker.paper_config ~flavor () in
  let session = Harness.make_session config in
  List.iter (Harness.apply_step session) steps;
  (config, session)

let fingerprint_hex ?(gc = false) ?(symmetric = false) (config, session) =
  let perms =
    if symmetric then
      Fingerprint.segment_perms ~universe:config.Harness.universe
        ~segment_of:config.Harness.segment_of
    else [ Fingerprint.identity ~n_sites:4 ]
  in
  hex (Fingerprint.canonical ~gc ~perms session)

let test_fingerprint_golden () =
  let node session site = Dynvote_msgsim.Cluster.node (Harness.cluster session) site in
  let zeroed =
    session_after Decision.tdv_safe_flavor
      Schedule.[ Write 0; Crash 2; Restart (2, Some Zero); Write 1; Read 3 ]
  in
  Alcotest.(check bool) "zeroed: site 2 is amnesiac" true
    (Msg_node.is_amnesiac (node (snd zeroed) 2));
  (* Site 3's record from before two later commits, put back after a
     zeroed restart left it amnesiac: stale, but decodable. *)
  let stale =
    let config, session = session_after Decision.tdv_safe_flavor [] in
    let saved = Msg_node.stable_record (node session 3) in
    List.iter (Harness.apply_step session)
      Schedule.[ Write 0; Crash 3; Write 1; Write 0; Restart (3, Some Zero) ];
    Msg_node.set_stable_record (node session 3) saved;
    (config, session)
  in
  Alcotest.(check bool) "stale: site 3 is amnesiac" true
    (Msg_node.is_amnesiac (node (snd stale) 3));
  let partitioned =
    session_after Decision.tdv_safe_flavor
      Schedule.[ Write 0; Partition 1; Write 2; Crash_coordinator 0; Write 1 ]
  in
  Alcotest.(check bool) "partitioned: two groups" true
    (Option.map List.length (Dynvote_msgsim.Cluster.groups (Harness.cluster (snd partitioned)))
    = Some 2);
  let history =
    session_after Decision.ldv_flavor
      Schedule.[ Write 0; Write 1; Crash 3; Write 2; Restart (3, None); Write 3 ]
  in
  let mirrored a b =
    session_after Decision.dv_flavor Schedule.[ Write a; Crash b; Write 2; Crash 3 ]
  in
  let cases =
    [
      ("zeroed amnesiac record", fingerprint_hex zeroed);
      ("decodable stale record", fingerprint_hex stale);
      ("two-group partition", fingerprint_hex partitioned);
      ("history, gc off", fingerprint_hex history);
      ("history, gc on", fingerprint_hex ~gc:true history);
      ("dv, identity only", fingerprint_hex (mirrored 0 1));
      ("dv, symmetric", fingerprint_hex ~symmetric:true (mirrored 0 1));
    ]
  in
  Alcotest.(check (list (pair string string)))
    "canonical fingerprints"
    [
      ( "zeroed amnesiac record",
        "040216020200000402160202000000001e00020204040216020200001e16010000000600001e020216040216080004020404000604080002020204000602" );
      ( "decodable stale record",
        "06060e0602000006060e0602000006060e0602000002021e0202020200001e1e0e010000000602021e04040e06060e080006020604060602080006020604060602" );
      ( "two-group partition",
        "00001e0002000000001e0002000000001e0002000000001e000200001c1c040618000002020200001e080000020004000600080000020004000600" );
      ( "history, gc off",
        "04040e0402000004040e0402000004040e0402000000001e000202001e0e010000000801011e00001e02020e04040e080004020404040600080004020404040600" );
      ( "history, gc on",
        "04040e0402000004040e0402000004040e0402000000001e000202001e0e010000000600001e02020e04040e080004020404040600080004020404040600" );
      ( "dv, identity only",
        "02021a0202000000001e0002020002021a0202000002021a020200000a0a010000000400001e02021a080002020004020602080002020004020602" );
      ( "dv, symmetric",
        "00001e0002000002021c0202020002021c0202020002021c020202000c0c010002000400001e02021c080000020204020602080000020204020602" );
    ]
    cases;
  Alcotest.(check string) "symmetry folds the mirrored schedule"
    (fingerprint_hex ~symmetric:true (mirrored 1 0))
    (fingerprint_hex ~symmetric:true (mirrored 0 1))

(* The paper's §3 four-copy topology: the published violation surfaces as
   a short schedule even at a shallow bound. *)
let test_paper_example_tdv () =
  let p = policy "tdv" in
  let report = Checker.check ~policy:p ~depth:5 (Checker.paper_config ()) in
  match report.Checker.verdict with
  | Checker.Counterexample { replay_matches; _ } ->
      Alcotest.(check bool) "replays identically" true replay_matches
  | _ -> Alcotest.fail "tdv hole not found on the paper example at depth 5"

(* Deep sweep of the paper scope, opt-in: DYNVOTE_MC_DEPTH=8 runs the
   full acceptance bound (~1 minute for all four policies). *)
let test_deep_sweep () =
  match Sys.getenv_opt "DYNVOTE_MC_DEPTH" with
  | None | Some "" -> ()
  | Some depth ->
      let depth = int_of_string depth in
      List.iter
        (fun name ->
          let p = policy name in
          let report =
            Checker.check ~policy:p ~depth (Checker.paper_config ())
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s verdict ok at depth %d" name depth)
            true (Checker.verdict_ok report);
          match (p.Harness.expect_safe, report.Checker.verdict) with
          | true, Checker.Counterexample _ ->
              Alcotest.failf "%s expected safe, found a counterexample" name
          | false, Checker.Clean _ ->
              Alcotest.failf "%s expected unsafe, swept clean" name
          | _ -> ())
        [ "dv"; "odv"; "tdv"; "tdv-safe" ]

let suite =
  [
    Alcotest.test_case "tdv hole found and replayed" `Quick test_tdv_hole_found;
    Alcotest.test_case "safe policies sweep clean" `Quick test_safe_policies_clean;
    Alcotest.test_case "search is deterministic" `Quick test_deterministic;
    Alcotest.test_case "symmetry reduction is sound" `Quick test_symmetry_sound;
    Alcotest.test_case "state budget reported" `Quick test_budget_exhaustion;
    Alcotest.test_case "budget counter never drifts (-j4)" `Quick
      test_budget_no_drift_parallel;
    Alcotest.test_case "partial-order reduction is sound (-j1/-j4)" `Quick
      test_por_equivalence;
    Alcotest.test_case "seen store: claim rule and admission cap" `Quick
      test_seen_store_claim;
    Alcotest.test_case "seen store: spilling changes no answer" `Quick
      test_seen_store_spill_equivalence;
    Alcotest.test_case "search under DYNVOTE_MC_SPILL is identical" `Quick
      test_search_spill_equivalence;
    Alcotest.test_case "verdicts agree at -j1, -j2 and -j4" `Quick
      test_jobs_verdict_parity;
    Alcotest.test_case "golden canonical fingerprints" `Quick
      test_fingerprint_golden;
    Alcotest.test_case "paper example: tdv counterexample" `Quick
      test_paper_example_tdv;
    Alcotest.test_case "deep sweep (DYNVOTE_MC_DEPTH)" `Slow test_deep_sweep;
  ]
