(** Tests of the C-style VFS baseline, including on-disk compatibility with
    the Bento version (same format, different implementations). *)

open Helpers

let tc = Alcotest.test_case

let with_cfs ?disk_blocks f =
  in_sim ?disk_blocks (fun machine ->
      ok (Vfs_xv6.mkfs machine);
      let vfs = ok (Vfs_xv6.mount ~background:false machine) in
      let os = Kernel.Os.create vfs in
      f machine os vfs;
      Vfs_xv6.unmount vfs)

let read_str os path = Bytes.to_string (ok (Kernel.Os.read_file os path))

let test_basic_ops () =
  with_cfs (fun _m os _ ->
      ok (Kernel.Os.mkdir os "/d");
      ok (Kernel.Os.write_file os "/d/f" (bytes_of_string "c-kernel"));
      Alcotest.(check string) "read" "c-kernel" (read_str os "/d/f");
      ok (Kernel.Os.rename os "/d/f" "/d/g");
      Alcotest.(check string) "renamed" "c-kernel" (read_str os "/d/g");
      ok (Kernel.Os.unlink os "/d/g");
      ok (Kernel.Os.rmdir os "/d"))

let test_large_file () =
  with_cfs ~disk_blocks:(48 * 1024) (fun _m os _ ->
      let size = (Xv6fs.Layout.ndirect + Xv6fs.Layout.nindirect + 3) * 4096 in
      let data = payload size in
      let fd = ok (Kernel.Os.open_ os "/big" Kernel.Os.(creat wronly)) in
      let _ = ok (Kernel.Os.pwrite os fd ~pos:0 data) in
      ok (Kernel.Os.fsync os fd);
      ok (Kernel.Os.close os fd);
      Alcotest.(check bool) "content" true
        (Bytes.equal data (ok (Kernel.Os.read_file os "/big"))))

let test_crash_recovery () =
  in_sim (fun machine ->
      ok (Vfs_xv6.mkfs machine);
      let vfs = ok (Vfs_xv6.mount ~background:false machine) in
      let os = Kernel.Os.create vfs in
      let fd = ok (Kernel.Os.open_ os "/f" Kernel.Os.(creat wronly)) in
      let _ = ok (Kernel.Os.write os fd (bytes_of_string "stable")) in
      ok (Kernel.Os.fsync os fd);
      Device.Ssd.crash (Kernel.Machine.disk machine);
      let vfs2 = ok (Vfs_xv6.mount ~background:false machine) in
      let os2 = Kernel.Os.create vfs2 in
      Alcotest.(check string) "recovered" "stable"
        (Bytes.to_string (ok (Kernel.Os.read_file os2 "/f")));
      Vfs_xv6.unmount vfs2;
      ignore (vfs, os))

(* The same image must mount under either implementation: format with the
   Bento mkfs, fill via the C mount, then read everything back through a
   Bento mount. *)
let test_cross_implementation_image () =
  in_sim (fun machine ->
      ok (Bento.Bentofs.mkfs machine xv6_maker);
      let vfs = ok (Vfs_xv6.mount ~background:false machine) in
      let os = Kernel.Os.create vfs in
      ok (Kernel.Os.mkdir os "/shared");
      for i = 0 to 9 do
        ok
          (Kernel.Os.write_file os
             (Printf.sprintf "/shared/f%d" i)
             (bytes_of_string (Printf.sprintf "payload-%d" i)))
      done;
      Vfs_xv6.unmount vfs;
      let vfs2, h2 = ok (Bento.Bentofs.mount ~background:false machine xv6_maker) in
      let os2 = Kernel.Os.create vfs2 in
      for i = 0 to 9 do
        Alcotest.(check string)
          (Printf.sprintf "bento reads c-written file %d" i)
          (Printf.sprintf "payload-%d" i)
          (Bytes.to_string
             (ok (Kernel.Os.read_file os2 (Printf.sprintf "/shared/f%d" i))))
      done;
      ok (Kernel.Os.write_file os2 "/shared/from-bento" (bytes_of_string "b"));
      Bento.Bentofs.unmount vfs2 h2;
      (* and back again *)
      let vfs3 = ok (Vfs_xv6.mount ~background:false machine) in
      let os3 = Kernel.Os.create vfs3 in
      Alcotest.(check string) "c reads bento-written file" "b"
        (Bytes.to_string (ok (Kernel.Os.read_file os3 "/shared/from-bento")));
      Vfs_xv6.unmount vfs3)

let test_concurrent_metadata () =
  with_cfs (fun machine os _ ->
      let done_ = Sim.Sync.Semaphore.create 0 in
      for w = 0 to 7 do
        Kernel.Machine.spawn machine (fun () ->
            let dir = Printf.sprintf "/t%d" w in
            ok (Kernel.Os.mkdir os dir);
            for i = 0 to 9 do
              ok
                (Kernel.Os.write_file os
                   (Printf.sprintf "%s/f%d" dir i)
                   (bytes_of_string "x"))
            done;
            for i = 0 to 9 do
              ok (Kernel.Os.unlink os (Printf.sprintf "%s/f%d" dir i))
            done;
            ok (Kernel.Os.rmdir os dir);
            Sim.Sync.Semaphore.release done_)
      done;
      for _ = 0 to 7 do
        Sim.Sync.Semaphore.acquire done_
      done;
      let entries = ok (Kernel.Os.readdir os "/") in
      Alcotest.(check int) "root back to dots only" 2 (List.length entries))

(* ------------------------------------------------------------------ *)
(* The C traits (§6.2), each against the Bento stack on the same trace:
   a later refactor must not quietly hand the baseline Bento's batching. *)

let device_count machine name =
  Sim.Stats.Counter.get_int
    (Sim.Stats.counter (Device.Ssd.stats (Kernel.Machine.disk machine)) name)

(* Device command and block counts moved by [f]. *)
let device_delta machine ~cmds ~blocks f =
  let c0 = device_count machine cmds and b0 = device_count machine blocks in
  f ();
  (device_count machine cmds - c0, device_count machine blocks - b0)

let on_stack k f =
  in_sim (fun machine ->
      Stacks.mkfs k machine;
      let os, unmount = Stacks.mount ~background:false k machine in
      f machine os;
      unmount ())

let write_pages os path n =
  let fd = ok (Kernel.Os.open_ os path Kernel.Os.(creat wronly)) in
  let _ = ok (Kernel.Os.pwrite os fd ~pos:0 (payload (n * 4096))) in
  fd

(* fsync of 16 dirty pages: log blocks committed, device write commands
   and blocks written during the fsync, and the writeback's
   [write_pages] calls and pages. *)
type fsync_io = {
  committed : int;
  cmds : int;
  blocks : int;
  calls : int;
  pages : int;
}

let fsync_io k =
  let r = ref None in
  on_stack k (fun machine os ->
      let fd = write_pages os "/f" 16 in
      let log = Kernel.Machine.counter machine "log_commit_blocks" in
      let n0 = Sim.Stats.Counter.get_int log in
      let cmds, blocks =
        device_delta machine ~cmds:"write_cmds" ~blocks:"blocks_written"
          (fun () -> ok (Kernel.Os.fsync os fd))
      in
      ok (Kernel.Os.close os fd);
      let st = Kernel.Vfs.stats (Kernel.Os.vfs os) in
      let get name = Sim.Stats.Counter.get_int (Sim.Stats.counter st name) in
      r :=
        Some
          {
            committed = Sim.Stats.Counter.get_int log - n0;
            cmds;
            blocks;
            calls = get "wb_calls";
            pages = get "wb_pages";
          });
  Option.get !r

let test_sync_per_block_commit () =
  let c = fsync_io Stacks.Ckernel and b = fsync_io Stacks.Bento in
  Alcotest.(check bool) "fsync commits the 16 data blocks" true
    (c.committed >= 16);
  Alcotest.(check int) "ckernel: one write command per block" c.blocks c.cmds;
  Alcotest.(check bool) "log copy and install both written" true
    (c.blocks >= 2 * c.committed);
  Alcotest.(check int) "same blocks written on bento" c.blocks b.blocks;
  Alcotest.(check bool) "bento batches them into fewer commands" true
    (b.cmds < b.blocks)

let test_writepage () =
  let c = fsync_io Stacks.Ckernel and b = fsync_io Stacks.Bento in
  Alcotest.(check int) "ckernel writes back 16 pages" 16 c.pages;
  Alcotest.(check int) "one page per write_pages call" c.pages c.calls;
  Alcotest.(check int) "bento writes back 16 pages" 16 b.pages;
  Alcotest.(check bool) "bento batches pages per call" true (b.calls < b.pages)

(* Sequential 4 KB reads of a 64-page file on a fresh mount: (read
   commands, blocks read, pages read ahead). *)
let cold_read_io k =
  let r = ref (0, 0, 0) in
  in_sim (fun machine ->
      Stacks.mkfs k machine;
      let os, unmount = Stacks.mount ~background:false k machine in
      let fd = write_pages os "/f" 64 in
      ok (Kernel.Os.fsync os fd);
      ok (Kernel.Os.close os fd);
      unmount ();
      let os, unmount = Stacks.mount ~background:false k machine in
      let fd = ok (Kernel.Os.open_ os "/f" Kernel.Os.rdonly) in
      let cmds, blocks =
        device_delta machine ~cmds:"read_cmds" ~blocks:"blocks_read"
          (fun () ->
            for i = 0 to 63 do
              ignore (ok (Kernel.Os.pread os fd ~pos:(i * 4096) ~len:4096))
            done)
      in
      ok (Kernel.Os.close os fd);
      let st = Kernel.Vfs.stats (Kernel.Os.vfs os) in
      let ra =
        Sim.Stats.Counter.get_int (Sim.Stats.counter st "readahead_pages")
      in
      r := (cmds, blocks, ra);
      unmount ());
  !r

let test_readahead_per_block () =
  let cmds, blocks, ra = cold_read_io Stacks.Ckernel in
  Alcotest.(check bool) "ckernel reads ahead" true (ra > 0);
  Alcotest.(check bool) "the file comes off the device" true (blocks >= 64);
  Alcotest.(check int) "ckernel: one read command per block" blocks cmds;
  let cmds, blocks, ra = cold_read_io Stacks.Bento in
  Alcotest.(check bool) "bento reads ahead" true (ra > 0);
  Alcotest.(check bool) "bento merges the window into fewer commands" true
    (cmds < blocks)

let suite =
  [
    tc "basic ops" `Quick test_basic_ops;
    tc "large file" `Quick test_large_file;
    tc "crash recovery" `Quick test_crash_recovery;
    tc "cross-implementation image" `Quick test_cross_implementation_image;
    tc "concurrent metadata" `Quick test_concurrent_metadata;
    tc "fsync: one write command per log block" `Quick
      test_sync_per_block_commit;
    tc "writeback: one page per write_pages call" `Quick test_writepage;
    tc "cold readahead: one read command per block" `Quick
      test_readahead_per_block;
  ]
