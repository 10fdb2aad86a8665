let () =
  Alcotest.run "ozo"
    [ ("ir", Test_ir.suite);
      ("dominance", Test_dominance.suite);
      ("vgpu", Test_vgpu.suite);
      ("simt", Test_simt.suite);
      ("runtime", Test_runtime.suite);
      ("frontend", Test_frontend.suite);
      ("local-opt", Test_localopt.suite);
      ("memfold", Test_memfold.suite);
      ("passes", Test_passes.suite);
      ("analysis", Test_analysis.suite);
      ("pipeline", Test_pipeline.suite);
      ("parser", Test_parser.suite);
      ("components", Test_components.suite);
      ("backend", Test_backend.suite);
      ("faults", Test_faults.suite);
      ("obs", Test_obs.suite);
      ("golden", Test_golden.suite);
      ("resilience", Test_resilience.suite);
      ("schema", Test_schema.suite);
      ("serve", Test_serve.suite);
      ("properties", Test_props.suite);
      (* the differential oracle's rows (test/oracle.ml), next to each
         other so that the cells they share are alive only while they
         run; [oracle] first, so that its [Cached] variant asks the
         capped cache again right after the cell's vm compile *)
      ("oracle", Oracle.suite);
      ("domains", Test_domains.suite);
      ("vm", Test_vm.suite);
      ("portability", Test_portability.suite);
      ("tune", Test_tune.suite) ]
