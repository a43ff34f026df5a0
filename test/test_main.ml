let () =
  Alcotest.run "vyrd"
    [
      ("sched", Test_sched.suite);
      ("core", Test_core.suite);
      ("multiset", Test_multiset.suite);
      ("jlib", Test_jlib.suite);
      ("boxwood-cache", Test_boxwood_cache.suite);
      ("blink-tree", Test_blink.suite);
      ("scanfs", Test_scanfs.suite);
      ("harness", Test_harness.suite);
      ("baselines", Test_baselines.suite);
      ("lin", Test_lin.suite);
      ("analysis", Test_analysis.suite);
      ("fuzz", Test_fuzz.suite);
      ("oracle", Test_oracle.suite);
      ("hotpath", Test_hotpath.suite);
      ("ring-model", Test_ring_model.suite);
      ("native-stress", Test_native_stress.suite);
      ("explore", Test_explore.suite);
      ("compose", Test_compose.suite);
      ("golden", Test_golden.suite);
      ("frames", Test_frames.suite);
      ("model", Test_model.suite);
      ("log", Test_log.suite);
      ("faults", Test_faults.suite);
      ("pipeline", Test_pipeline.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("net", Test_net.suite);
      ("cluster", Test_cluster.suite);
      ("monitor", Test_monitor.suite);
      ("alloc", Test_alloc.suite);
    ]
