let () =
  (* the socket tests write to peers that hang up on purpose; like
     [hopi serve], take EPIPE as an error instead of dying of SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "hopi"
    (Test_util.suite @ Test_obs.suite @ Test_graph.suite @ Test_xml.suite
     @ Test_collection.suite @ Test_twohop.suite @ Test_storage.suite
     @ Test_crash.suite @ Test_partition.suite @ Test_core.suite @ Test_query.suite
     @ Test_flix.suite @ Test_props.suite @ Test_serve.suite
     @ Test_coldpath.suite @ Test_live.suite @ Test_server.suite
     @ Test_shard.suite)
