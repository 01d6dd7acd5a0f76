(* Aggregated test runner: one Alcotest suite per library module. *)

let () =
  Alcotest.run "mailsys"
    (Test_heap.suite @ Test_rng.suite @ Test_stats.suite @ Test_id_table.suite @ Test_engine.suite
   @ Test_graph.suite @ Test_shortest_path.suite
   @ Test_topology.suite @ Test_net.suite @ Test_route_cache.suite
   @ Test_failure.suite
   @ Test_queueing.suite @ Test_name.suite
   @ Test_attribute.suite @ Test_directory.suite
   @ Test_fuzzy.suite @ Test_organisation.suite @ Test_loadbalance.suite
   @ Test_reconfigure.suite @ Test_replicas.suite @ Test_channel.suite
   @ Test_mst.suite @ Test_ghs.suite @ Test_backbone.suite
   @ Test_broadcast.suite @ Test_mailstore.suite @ Test_user_agent.suite
   @ Test_pipeline.suite @ Test_dlist.suite @ Test_cache.suite
   @ Test_billing.suite @ Test_content.suite
   @ Test_name_store.suite @ Test_service_queue.suite @ Test_loss.suite
   @ Test_core.suite @ Test_syntax_system.suite
   @ Test_location_system.suite @ Test_attribute_system.suite
   @ Test_telemetry.suite @ Test_tracing.suite @ Test_scenario.suite
   @ Test_fault.suite @ Test_misc_coverage.suite @ Test_observability.suite
   @ Test_scale.suite @ Test_analyze.suite)
