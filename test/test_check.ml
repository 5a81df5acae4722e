(** Tests of the crash-consistency checker itself: the POSIX oracle, the
    differential driver, crash-point replay on handcrafted traces, and the
    self-test that an injected bug is actually caught. *)

open Helpers

let tc = Alcotest.test_case

let report_clean label (r : Check.Checker.report) =
  if not (Check.Checker.report_ok r) then
    Alcotest.failf "%s:\n%s" label
      (Format.asprintf "%a" Check.Checker.pp_report r)

(* ------------------------------------------------------------------ *)
(* Oracle model                                                        *)
(* ------------------------------------------------------------------ *)

let test_oracle_errnos () =
  let open Check.Model in
  let trace =
    Check.Workload.of_ops ~seed:0
      [
        Mkdir "/d";
        Mkdir "/d" (* again: EEXIST *);
        Create "/d/f";
        Create "/d/f" (* again: O_CREAT without O_EXCL, plain ok *);
        Unlink "/missing";
        Rmdir "/d" (* non-empty *);
        Unlink "/d/f";
        Rmdir "/d";
        Stat "/d" (* gone now *);
      ]
  in
  let expect =
    [|
      Ok_unit;
      Err Kernel.Errno.EEXIST;
      Ok_unit;
      Ok_unit;
      Err Kernel.Errno.ENOENT;
      Err Kernel.Errno.ENOTEMPTY;
      Ok_unit;
      Ok_unit;
      Err Kernel.Errno.ENOENT;
    |]
  in
  Array.iteri
    (fun i want ->
      Alcotest.(check string)
        (Printf.sprintf "op %d oracle outcome" i)
        (outcome_to_string want)
        (outcome_to_string trace.Check.Workload.expected.(i)))
    expect

(* ------------------------------------------------------------------ *)
(* Differential: all four stacks vs the oracle                        *)
(* ------------------------------------------------------------------ *)

let test_differential_smoke () =
  with_seed ~default:42 @@ fun seed ->
  let r =
    Check.Checker.run ~seed ~ops:120 ~stacks:Stacks.all ~mode:None ()
  in
  report_clean "differential (no crash points)" r

(* ------------------------------------------------------------------ *)
(* Crash-point replay, sampled, one stack at a time                    *)
(* ------------------------------------------------------------------ *)

let crash_smoke kind () =
  with_seed ~default:7 @@ fun seed ->
  let r =
    Check.Checker.run ~seed ~ops:60 ~stacks:[ kind ]
      ~mode:(Some (Check.Checker.Sample 8))
      ()
  in
  report_clean (Stacks.name kind ^ " crash smoke") r

(* The C-kernel baseline once ran a private copy of the xv6 log,
   allocators and directories, and these sampled traces caught its crash
   bugs: inodes left allocated but unreachable from the root (all three
   seeds) and symlinks that survived a crash with an empty target (seeds
   42 and 7). *)
let ckernel_crash_trace seed () =
  let r =
    Check.Checker.run ~seed ~ops:300 ~stacks:[ Stacks.Ckernel ]
      ~mode:(Some (Check.Checker.Sample 32))
      ()
  in
  report_clean (Printf.sprintf "ckernel crash trace (seed %d)" seed) r

(* ------------------------------------------------------------------ *)
(* Handcrafted traces: rename and symlink crash behaviour (every crash
   point enumerated, every crash-clean stack)                          *)
(* ------------------------------------------------------------------ *)

let check_handcrafted label ops =
  let trace = Check.Workload.of_ops ~seed:1 ops in
  List.iter
    (fun kind ->
      let r =
        Check.Checker.run_trace ~stacks:[ kind ]
          ~mode:(Some Check.Checker.All) trace
      in
      report_clean (label ^ " on " ^ Stacks.name kind) r)
    Check.Checker.crash_clean

let test_rename_crash_atomicity () =
  let open Check.Model in
  check_handcrafted "rename"
    [
      Mkdir "/a";
      Mkdir "/b";
      Create "/a/f";
      Write { path = "/a/f"; pos = 0; len = 5000 };
      Fsync "/a/f";
      Rename ("/a/f", "/b/g");
      Fsync "/b/g";
      (* replacing rename: the victim's inode must be freed cleanly *)
      Create "/b/h";
      Write { path = "/b/h"; pos = 0; len = 300 };
      Rename ("/b/h", "/b/g");
      Sync;
      Stat "/b/g";
      Readdir "/b";
    ]

let test_symlink_crash_behaviour () =
  let open Check.Model in
  check_handcrafted "symlink"
    [
      Create "/t";
      Write { path = "/t"; pos = 0; len = 1000 };
      Fsync "/t";
      Symlink { target = "/t"; link = "/l" };
      Sync;
      Readlink "/l";
      (* write through the link, then move the link itself *)
      Write { path = "/l"; pos = 1000; len = 500 };
      Fsync "/l";
      Rename ("/l", "/l2");
      Readlink "/l2";
      Unlink "/t" (* /l2 now dangles: still a legal namespace *);
      Sync;
      Readdir "/";
    ]

let test_scatter_batch_crash () =
  (* The log install and writepages paths now dispatch scattered home
     writes as one merged batch of concurrent device commands. Command
     hooks fire per command, so crash points fall *inside* a partially
     completed batch — some runs durable, some not. Interleaving writes
     to two files keeps their home blocks non-contiguous, guaranteeing
     multi-command batches; fsync/sync must still replay to a state the
     oracle accepts at every such point. *)
  let open Check.Model in
  check_handcrafted "mid-batch scatter crash"
    [
      Create "/a";
      Create "/b";
      Write { path = "/a"; pos = 0; len = 20000 };
      Write { path = "/b"; pos = 0; len = 20000 };
      Write { path = "/a"; pos = 20000; len = 20000 };
      Write { path = "/b"; pos = 20000; len = 20000 };
      Fsync "/a" (* commit: scatter install of interleaved blocks *);
      Fsync "/b";
      Write { path = "/a"; pos = 8192; len = 12000 } (* overwrite mid-file *);
      Write { path = "/b"; pos = 0; len = 4096 };
      Sync (* writepages flusher: concurrent multi-run dispatch *);
      Stat "/a";
      Stat "/b";
      Readdir "/";
    ]

(* ------------------------------------------------------------------ *)
(* Self-test: an injected ordering bug must produce a counterexample   *)
(* ------------------------------------------------------------------ *)

let test_inject_bug_is_caught () =
  let r =
    Check.Checker.run ~inject_bug:true ~seed:1 ~ops:60
      ~stacks:[ Stacks.Bento ]
      ~mode:(Some (Check.Checker.Sample 32))
      ()
  in
  Alcotest.(check bool) "injected bug reported" false
    (Check.Checker.report_ok r);
  (* the counterexample carries a crash point and an op window *)
  let v =
    List.concat_map
      (fun c -> c.Check.Checker.c_violations)
      r.Check.Checker.r_crashes
  in
  Alcotest.(check bool) "at least one violation" true (v <> []);
  List.iter
    (fun v ->
      Alcotest.(check bool) "violation names ops" true
        (v.Check.Checker.v_ops <> []))
    v

(* ------------------------------------------------------------------ *)
(* Crash consistency under the file server: sessions with dirty        *)
(* write-lease caches, crash points mid-commit                         *)
(* ------------------------------------------------------------------ *)

let test_server_crash () =
  with_seed ~default:42 @@ fun seed ->
  let r = Check.Server_crash.run ~sessions:6 ~seed () in
  if not (Check.Server_crash.report_ok r) then
    Alcotest.failf "server crash check:\n%s"
      (Format.asprintf "%a" Check.Server_crash.pp_report r);
  Alcotest.(check int) "every session committed" 6 r.Check.Server_crash.s_committed_at_end;
  Alcotest.(check bool) "crash points captured" true
    (r.Check.Server_crash.s_points_captured > 0);
  (* the run must actually exercise mid-commit interleavings — points
     where some sessions had committed and others still held dirty
     caches — or the property is vacuous *)
  Alcotest.(check bool) "mid-commit points replayed" true
    (r.Check.Server_crash.s_points_mixed > 0)

let test_server_crash_inject_bug_is_caught () =
  let r = Check.Server_crash.run ~inject_bug:true ~sessions:4 ~seed:1 () in
  Alcotest.(check bool) "injected bug reported" false
    (Check.Server_crash.report_ok r)

(* ------------------------------------------------------------------ *)
(* CAS crash traces: mid-seal and mid-COW                              *)
(* ------------------------------------------------------------------ *)

(* The CAS layer has its own crash protocol (two-slot superblock, live
   state never overwritten) that the Model-op checker above cannot
   exercise, so these traces capture crash points by hand with the same
   device hook the checker uses, then replay each point — once with only
   the stable image (clean power cut) and once with the whole volatile
   cache applied (everything in flight made it) — and check the CAS
   oracle against the recovered mount. *)

let cas_blocks = 4096

let cas_tree () =
  ( [ "sub" ],
    [
      ("a.bin", payload ~seed:11 5000);
      ("sub/b.bin", payload ~seed:12 9000);
      ("c.bin", payload ~seed:11 5000) (* exact duplicate of a.bin *);
    ] )

type cas_point = {
  cpt_stable : (int * Bytes.t) array;
  cpt_volatile : (int * Bytes.t) list;
}

(** Run [setup] and make it durable, then run [mutate] with the command
    hook installed; return one crash point per write/flush boundary. *)
let cas_capture ~setup ~mutate : cas_point list =
  let points = ref [] in
  in_sim (fun machine ->
      let dev = Kernel.Machine.disk machine in
      ok (Bento.Bentofs.mkfs ~cas_blocks machine xv6_maker);
      let vfs, handle =
        ok (Bento.Bentofs.mount ~background:false ~cas_blocks machine xv6_maker)
      in
      let os = Kernel.Os.create vfs in
      let store = Option.get (Kernel.Cas.of_machine machine) in
      setup os store;
      ok (Kernel.Os.sync os);
      Device.Ssd.flush dev;
      let cached_epoch = ref (-1) and cached_stable = ref [||] in
      let capture = function
        | Device.Ssd.Cmd_read -> ()
        | Device.Ssd.Cmd_write | Device.Ssd.Cmd_flush ->
            let epoch = Device.Ssd.stable_epoch dev in
            if !cached_epoch <> epoch then begin
              let acc = ref [] in
              Array.iteri
                (fun i o ->
                  match o with Some b -> acc := (i, b) :: !acc | None -> ())
                (Device.Ssd.crash_view dev);
              cached_stable := Array.of_list (List.rev !acc);
              cached_epoch := epoch
            end;
            points :=
              {
                cpt_stable = !cached_stable;
                cpt_volatile = Device.Ssd.volatile_view dev;
              }
              :: !points
      in
      Device.Ssd.set_command_hook dev (Some capture);
      mutate os store;
      Device.Ssd.set_command_hook dev None;
      Bento.Bentofs.unmount vfs handle);
  List.rev !points

(** Rebuild the crashed image on a fresh machine, mount (= CAS attach +
    log recovery), and hand [check] the recovered view. [volatile] also
    applies the in-flight cache, as if every outstanding write made it to
    media just before the cut. *)
let cas_replay (pt : cas_point) ~volatile check =
  in_sim (fun machine ->
      let dev = Kernel.Machine.disk machine in
      Array.iter
        (fun (blk, b) -> Device.Ssd.Offline.write dev blk b)
        pt.cpt_stable;
      if volatile then
        List.iter
          (fun (blk, b) -> Device.Ssd.Offline.write dev blk b)
          pt.cpt_volatile;
      let vfs, handle =
        ok (Bento.Bentofs.mount ~background:false ~cas_blocks machine xv6_maker)
      in
      let os = Kernel.Os.create vfs in
      let store = Option.get (Kernel.Cas.of_machine machine) in
      check os store;
      Bento.Bentofs.unmount vfs handle)

let cas_read_file os path =
  let fd = ok (Kernel.Os.open_ os path Kernel.Os.rdonly) in
  let st = ok (Kernel.Os.fstat os fd) in
  let data = ok (Kernel.Os.pread os fd ~pos:0 ~len:st.Kernel.Vfs.st_size) in
  ok (Kernel.Os.close os fd);
  data

(* Crash at every command boundary inside seal_files. Oracle: the sealed
   manifest is all-or-nothing — recovery finds either no manifest (the
   old generation) or a complete one whose every block is durable and
   re-hashes to its key. *)
let test_cas_crash_mid_seal () =
  let dirs, files = cas_tree () in
  let points =
    cas_capture
      ~setup:(fun _ _ -> ())
      ~mutate:(fun _ store ->
        ignore (Kernel.Cas.seal_files store ~name:"mid-seal" ~dirs ~files : int))
  in
  Alcotest.(check bool) "captured crash points" true (List.length points > 2);
  let old_gen = ref 0 and sealed = ref 0 in
  List.iter
    (fun pt ->
      List.iter
        (fun volatile ->
          cas_replay pt ~volatile (fun _ store ->
              match Kernel.Cas.find_manifest store "mid-seal" with
              | None -> incr old_gen
              | Some mid ->
                  if not (Kernel.Cas.verify_manifest store mid) then
                    Alcotest.fail
                      "recovered manifest fails durability/hash verification";
                  Alcotest.(check int) "recovered manifest is whole"
                    (List.length files)
                    (Array.length (Kernel.Cas.manifest_files store mid));
                  incr sealed))
        [ false; true ])
    points;
  (* non-vacuity: the sweep must observe both sides of the commit point *)
  Alcotest.(check bool) "some crashes land before the seal commits" true
    (!old_gen > 0);
  Alcotest.(check bool) "some crashes land after the seal commits" true
    (!sealed > 0)

(* Crash at every command boundary inside a COW break: one page-aligned
   4 KB overwrite of a bound file, fsynced. Oracle: the victim reads back
   either the sealed bytes or the fully-written new bytes — never a mix,
   and never new bytes while the binding still stands (the unbind is only
   committed after the private copy is durable). The sibling tenant's
   alias must serve the sealed bytes at every crash point. *)
let test_cas_crash_mid_cow () =
  let dirs, files = cas_tree () in
  let victim = "/t0/sub/b.bin" in
  let old_b = List.assoc "sub/b.bin" files in
  let newpage = payload ~seed:99 4096 in
  let new_b = Bytes.copy old_b in
  Bytes.blit newpage 0 new_b 4096 4096;
  let points =
    cas_capture
      ~setup:(fun os store ->
        let mid = Kernel.Cas.seal_files store ~name:"mid-cow" ~dirs ~files in
        Kernel.Cas.instantiate store os ~mid ~root:"/t0";
        Kernel.Cas.instantiate store os ~mid ~root:"/t1")
      ~mutate:(fun os _ ->
        let fd = ok (Kernel.Os.open_ os victim Kernel.Os.wronly) in
        ignore (ok (Kernel.Os.pwrite os fd ~pos:4096 newpage) : int);
        ok (Kernel.Os.fsync os fd);
        ok (Kernel.Os.close os fd))
  in
  Alcotest.(check bool) "captured crash points" true (List.length points > 2);
  let olds = ref 0 and news = ref 0 and bound_old = ref 0 in
  List.iter
    (fun pt ->
      List.iter
        (fun volatile ->
          cas_replay pt ~volatile (fun os store ->
              let got = cas_read_file os victim in
              let ino = (ok (Kernel.Os.stat os victim)).Kernel.Vfs.st_ino in
              let bound = Kernel.Cas.binding_of store ino <> None in
              if Bytes.equal got old_b then begin
                incr olds;
                if bound then incr bound_old
              end
              else if Bytes.equal got new_b then begin
                incr news;
                if bound then
                  Alcotest.fail
                    "private COW content served while the binding still stands"
              end
              else
                Alcotest.fail
                  "torn COW: victim is neither the sealed content nor the \
                   fully-written copy";
              Alcotest.(check bytes) "sibling tenant still sealed" old_b
                (cas_read_file os "/t1/sub/b.bin")))
        [ false; true ])
    points;
  Alcotest.(check bool) "some crashes preserve the sealed content" true
    (!olds > 0);
  Alcotest.(check bool) "some crashes land after the write is durable" true
    (!news > 0);
  Alcotest.(check bool) "the still-bound old state was observed" true
    (!bound_old > 0)

(* ------------------------------------------------------------------ *)
(* Crash mid pushdown-walk-resubmission. Walks are reads: a workload
   crashed while a concurrent completion fiber chases index blocks must
   produce exactly the durability states of the same workload without
   the walker (the command hook ignores Cmd_read), and at every crash
   point — clean or torn — the index stays intact and walkable and the
   mutated file is old-or-new per block, never garbage.               *)

let pd_fanout_bits = Workloads.Pushdown_bench.walk_fanout_bits
let pd_depth = Workloads.Pushdown_bench.walk_depth
let pd_block i = payload ~seed:(100 + i) 4096
let pd_nwrites = 8

(** Build a durable index, then run the pwrite+fsync mutation loop with
    the command hook installed — with or without a concurrent walker
    fiber. Returns the crash points plus the index root and keys. *)
let pushdown_capture ~with_walker :
    cas_point list * int * int64 array =
  let points = ref [] in
  let root = ref 0 and keys = ref [||] in
  in_sim (fun machine ->
      let dev = Kernel.Machine.disk machine in
      ok (Bento.Bentofs.mkfs machine xv6_maker);
      let vfs, handle =
        ok (Bento.Bentofs.mount ~background:false machine xv6_maker)
      in
      let os = Kernel.Os.create vfs in
      let ix =
        Workloads.Pushdown_bench.build_index os ~path:"/idx"
          ~fanout_bits:pd_fanout_bits ~depth:pd_depth ~nkeys:8 ~seed:21
      in
      root := ix.Workloads.Pushdown_bench.ix_root_dev;
      keys := ix.Workloads.Pushdown_bench.ix_keys;
      let r = Kernel.Pushdown.registry machine in
      let cap = Kernel.Pushdown.grant r ~client:"checker" in
      Result.get_ok
        (Kernel.Pushdown.register r ~cap ~name:"wlk"
           (Kernel.Pushdown.Extent_walk
              { fanout_bits = pd_fanout_bits; depth = pd_depth }));
      let fd = ok (Kernel.Os.open_ os "/data" Kernel.Os.(creat rdwr)) in
      ok (Kernel.Os.sync os);
      Device.Ssd.flush dev;
      let cached_epoch = ref (-1) and cached_stable = ref [||] in
      let capture = function
        | Device.Ssd.Cmd_read -> ()
        | Device.Ssd.Cmd_write | Device.Ssd.Cmd_flush ->
            let epoch = Device.Ssd.stable_epoch dev in
            if !cached_epoch <> epoch then begin
              let acc = ref [] in
              Array.iteri
                (fun i o ->
                  match o with Some b -> acc := (i, b) :: !acc | None -> ())
                (Device.Ssd.crash_view dev);
              cached_stable := Array.of_list (List.rev !acc);
              cached_epoch := epoch
            end;
            points :=
              {
                cpt_stable = !cached_stable;
                cpt_volatile = Device.Ssd.volatile_view dev;
              }
              :: !points
      in
      Device.Ssd.set_command_hook dev (Some capture);
      let stop = ref false in
      let walker_done = Sim.Sync.Semaphore.create 0 in
      let walks = ref 0 in
      if with_walker then
        Kernel.Machine.spawn ~name:"walker" machine (fun () ->
            let rng = Sim.Rng.create 77 in
            let n = Array.length !keys in
            while not !stop do
              let key = !keys.(Sim.Rng.int rng n) in
              let v = ok (Kernel.Os.pushdown_walk os ~prog:"wlk" ~root:!root ~key) in
              assert (Bytes.get_int64_le v 0 = key);
              incr walks
            done;
            Sim.Sync.Semaphore.release walker_done);
      for i = 0 to pd_nwrites - 1 do
        ignore (ok (Kernel.Os.pwrite os fd ~pos:(i * 4096) (pd_block i)) : int);
        ok (Kernel.Os.fsync os fd)
      done;
      stop := true;
      if with_walker then begin
        Sim.Sync.Semaphore.acquire walker_done;
        Alcotest.(check bool) "walker actually walked" true (!walks > 0)
      end;
      Device.Ssd.set_command_hook dev None;
      ok (Kernel.Os.close os fd);
      Bento.Bentofs.unmount vfs handle);
  (List.rev !points, !root, !keys)

let pushdown_replay (pt : cas_point) ~volatile check =
  in_sim (fun machine ->
      let dev = Kernel.Machine.disk machine in
      Array.iter
        (fun (blk, b) -> Device.Ssd.Offline.write dev blk b)
        pt.cpt_stable;
      if volatile then
        List.iter
          (fun (blk, b) -> Device.Ssd.Offline.write dev blk b)
          pt.cpt_volatile;
      let vfs, handle =
        ok (Bento.Bentofs.mount ~background:false machine xv6_maker)
      in
      let os = Kernel.Os.create vfs in
      check machine os;
      Bento.Bentofs.unmount vfs handle)

let test_pushdown_walk_crash () =
  let baseline, _, _ = pushdown_capture ~with_walker:false in
  let walked, root, keys = pushdown_capture ~with_walker:true in
  Alcotest.(check bool) "captured crash points" true
    (List.length baseline > 2);
  (* walks are reads: the walker adds NO durability states *)
  Alcotest.(check int) "same number of durability states"
    (List.length baseline) (List.length walked);
  List.iter2
    (fun (b : cas_point) (w : cas_point) ->
      Alcotest.(check bool) "identical stable state" true
        (b.cpt_stable = w.cpt_stable);
      Alcotest.(check bool) "identical volatile state" true
        (b.cpt_volatile = w.cpt_volatile))
    baseline walked;
  let zeros = Bytes.make 4096 '\000' in
  List.iter
    (fun pt ->
      List.iter
        (fun volatile ->
          pushdown_replay pt ~volatile (fun machine os ->
              (* the index is intact and walkable at every crash point *)
              let r = Kernel.Pushdown.registry machine in
              let cap = Kernel.Pushdown.grant r ~client:"replay" in
              Result.get_ok
                (Kernel.Pushdown.register r ~cap ~name:"wlk"
                   (Kernel.Pushdown.Extent_walk
                      { fanout_bits = pd_fanout_bits; depth = pd_depth }));
              Array.iter
                (fun key ->
                  let v =
                    ok (Kernel.Os.pushdown_walk os ~prog:"wlk" ~root ~key)
                  in
                  Alcotest.(check int64) "index value survives" key
                    (Bytes.get_int64_le v 0))
                keys;
              (* the mutated file is old-or-new per fsynced block *)
              let st = ok (Kernel.Os.stat os "/data") in
              let fd = ok (Kernel.Os.open_ os "/data" Kernel.Os.rdonly) in
              for i = 0 to (st.Kernel.Vfs.st_size / 4096) - 1 do
                let b =
                  ok (Kernel.Os.pread os fd ~pos:(i * 4096) ~len:4096)
                in
                if not (Bytes.equal b (pd_block i) || Bytes.equal b zeros)
                then Alcotest.failf "torn block %d after replay" i
              done;
              ok (Kernel.Os.close os fd)))
        [ false; true ])
    walked

let suite =
  [
    tc "oracle errnos" `Quick test_oracle_errnos;
    tc "differential smoke (all stacks)" `Quick test_differential_smoke;
    tc "crash smoke xv6" `Quick (crash_smoke Stacks.Bento);
    tc "crash smoke fuse" `Quick (crash_smoke Stacks.Fuse);
    tc "crash smoke ext4" `Quick (crash_smoke Stacks.Ext4);
    tc "crash smoke ckernel" `Quick (crash_smoke Stacks.Ckernel);
    tc "ckernel crash trace, seed 42" `Quick (ckernel_crash_trace 42);
    tc "ckernel crash trace, seed 1" `Quick (ckernel_crash_trace 1);
    tc "ckernel crash trace, seed 7" `Quick (ckernel_crash_trace 7);
    tc "rename crash atomicity" `Quick test_rename_crash_atomicity;
    tc "symlink crash behaviour" `Quick test_symlink_crash_behaviour;
    tc "mid-batch scatter crash" `Quick test_scatter_batch_crash;
    tc "injected bug is caught" `Quick test_inject_bug_is_caught;
    tc "server crash: committed durable, dirty caches legal" `Quick
      test_server_crash;
    tc "server crash: injected bug is caught" `Quick
      test_server_crash_inject_bug_is_caught;
    tc "cas crash mid-seal: manifest all-or-nothing" `Quick
      test_cas_crash_mid_seal;
    tc "cas crash mid-cow: old xor new, never a mix" `Quick
      test_cas_crash_mid_cow;
    tc "pushdown walk crash: reads add no durability states" `Quick
      test_pushdown_walk_crash;
  ]
