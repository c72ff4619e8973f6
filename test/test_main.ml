let () =
  Alcotest.run "dynvote"
    [
      ("site_set", Test_site_set.suite);
      ("ordering", Test_ordering.suite);
      ("decision", Test_decision.suite);
      ("operation", Test_operation.suite);
      ("scenario", Test_scenario.suite);
      ("policy", Test_policy.suite);
      ("policy_extra", Test_policy_extra.suite);
      ("prng", Test_prng.suite);
      ("stats", Test_stats.suite);
      ("des", Test_des.suite);
      ("net", Test_net.suite);
      ("failures", Test_failures.suite);
      ("metrics", Test_metrics.suite);
      ("study", Test_study.suite);
      ("analytic", Test_analytic.suite);
      ("msgsim", Test_msgsim.suite);
      ("differential", Test_differential.suite);
      ("report", Test_report.suite);
      ("timeline", Test_timeline.suite);
      ("codec", Test_codec.suite);
      ("golden", Test_golden.suite);
      ("chaos", Test_chaos.suite);
      ("mc", Test_mc.suite);
      ("invariant", Test_invariant.suite);
      ("adaptive_witness", Test_adaptive_witness.suite);
      ("obs", Test_obs.suite);
      ("live", Test_live.suite);
      ("evloop", Test_evloop.suite);
      ("serve", Test_evloop.serve_suite);
      ("crash", Test_crash.suite);
      ("shard", Test_shard.suite);
      ("exec", Test_exec.suite);
      ("steal", Test_exec.steal_suite);
      ("misc", Test_misc.suite);
    ]
