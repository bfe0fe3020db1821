let () =
  Alcotest.run "mcs"
    (Test_util.suite @ Test_prng.suite @ Test_dag.suite @ Test_platform.suite
    @ Test_taskmodel.suite @ Test_ptg.suite @ Test_sched.suite @ Test_sim.suite @ Test_metrics.suite @ Test_experiments.suite
    @ Test_mheft.suite @ Test_release.suite @ Test_trace.suite
    @ Test_timeline.suite @ Test_parmap.suite @ Test_properties.suite
    @ Test_online.suite @ Test_malleable.suite @ Test_fault.suite @ Test_integration.suite @ Test_check.suite
    @ Test_obs.suite @ Test_serve.suite @ Test_analysis.suite
    @ Test_golden.suite)
