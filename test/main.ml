let () =
  Alcotest.run "bento"
    [
      ("sim", Test_sim.suite);
      ("stats", Test_stats.suite);
      ("profile", Test_profile.suite);
      ("benchdiff", Test_benchdiff.suite);
      ("trace", Test_trace.suite);
      ("observability", Test_observability.suite);
      ("layout", Test_layout.suite);
      ("device", Test_device.suite);
      ("bio", Test_bio.suite);
      ("bcache", Test_bcache.suite);
      ("bentoks", Test_bentoks.suite);
      ("xv6fs", Test_xv6fs.suite);
      ("os", Test_os.suite);
      ("symlink", Test_symlink.suite);
      ("vfs", Test_vfs.suite);
      ("upgrade", Test_upgrade.suite);
      ("stackfs", Test_stackfs.suite);
      ("fsck", Test_fsck.suite);
      ("workloads", Test_workloads.suite);
      ("policy", Test_policy.suite);
      ("model", Test_model.suite);
      ("vfs_xv6", Test_vfs_xv6.suite);
      ("fuse", Test_fuse.suite);
      ("proto", Test_proto.suite);
      ("server_proto", Test_server_proto.suite);
      ("server", Test_server.suite);
      ("ext4", Test_ext4.suite);
      ("cas", Test_cas.suite);
      ("pushdown", Test_pushdown.suite);
      ("check", Test_check.suite);
      ("stacks", Test_stacks.suite);
    ]
