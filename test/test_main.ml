let () =
  Alcotest.run "packet_filter"
    [
      Test_packet.suite;
      Test_filter.suite;
      Test_expr.suite;
      Test_sim.suite;
      Test_net.suite;
      Test_kernel.suite;
      Test_proto.suite;
      Test_monitor.suite;
      Test_extensions.suite;
      Test_trace.suite;
      Test_proto2.suite;
      Test_parse.suite;
      Test_internet.suite;
      Test_determinism.suite;
      Test_loss.suite;
      Test_semantics.suite;
      Test_misc.suite;
      Test_differential.suite;
      Test_analysis.suite;
      Test_ir.suite;
      Test_symex.suite;
      Test_dispatch.suite;
      Test_smp.suite;
      Test_san.suite;
    ]
