let () =
  Alcotest.run "ccdb"
    (Test_util.suites
    @ Test_sim.suites
    @ Test_model.suites
    @ Test_storage.suites
    @ Test_serial.suites
    @ Test_protocols.suites
    @ Test_core.suites
    @ Test_stl.suites
    @ Test_workload.suites
    @ Test_harness.suites
    @ Test_analysis.suites
    @ Test_faults.suites
    @ Test_recovery.suites
    @ Test_pipeline.suites
    @ Test_parallel.suites
    @ Test_insights.suites
    @ Test_golden.suites)
