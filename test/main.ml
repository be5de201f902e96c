let () =
  Alcotest.run "pruning"
    [
      ("util", Test_util.suite);
      ("cell", Test_cell.suite);
      ("netlist", Test_netlist.suite);
      ("rtl", Test_rtl.suite);
      ("sim", Test_sim.suite);
      ("vcd", Test_vcd.suite);
      ("cpu", Test_cpu.suite);
      ("fi", Test_fi.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("deltasim", Test_deltasim.suite);
      ("deltabatch", Test_deltabatch.suite);
      ("executor", Test_executor.suite);
      ("durable", Test_durable.suite);
      ("dist", Test_dist.suite);
      ("chaos", Test_chaos.suite);
      ("supervisor", Test_supervisor.suite);
      ("mate", Test_mate.suite);
      ("replay", Test_replay.suite);
      ("properties", Test_properties.suite);
      ("extensions", Test_extensions.suite);
      ("more", Test_more.suite);
      ("msp-fsm", Test_msp_fsm.suite);
      ("rtl-eval", Test_rtl_eval.suite);
      ("intercycle", Test_intercycle.suite);
      ("waveform", Test_waveform.suite);
      ("polish", Test_polish.suite);
      ("search-extra", Test_search_extra.suite);
      ("search-par", Test_search_parallel.suite);
      ("report", Test_report.suite);
      ("fault-model", Test_fault_model.suite);
      ("byzantine", Test_byzantine.suite);
      ("engine-equiv", Test_engine_equiv.suite);
    ]
