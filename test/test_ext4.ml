(** Tests of the ext4 comparator: functionality, journal commit semantics,
    and crash recovery through the JBD2-style journal. *)

open Helpers

let tc = Alcotest.test_case

let with_ext4 ?disk_blocks f =
  in_sim ?disk_blocks (fun machine ->
      ok (Ext4sim.Ext4.mkfs machine);
      let vfs, h = ok (Ext4sim.Ext4.mount ~background:false machine) in
      let os = Kernel.Os.create vfs in
      f machine os h;
      Ext4sim.Ext4.unmount vfs h)

let read_str os path = Bytes.to_string (ok (Kernel.Os.read_file os path))

let test_basic () =
  with_ext4 (fun _m os _ ->
      ok (Kernel.Os.mkdir os "/d");
      ok (Kernel.Os.write_file os "/d/f" (bytes_of_string "ext4 data"));
      Alcotest.(check string) "read" "ext4 data" (read_str os "/d/f");
      ok (Kernel.Os.rename os "/d/f" "/d/g");
      Alcotest.(check string) "renamed" "ext4 data" (read_str os "/d/g");
      ok (Kernel.Os.link os "/d/g" "/d/h");
      let st = ok (Kernel.Os.stat os "/d/h") in
      Alcotest.(check int) "nlink" 2 st.Kernel.Vfs.st_nlink;
      ok (Kernel.Os.unlink os "/d/g");
      ok (Kernel.Os.unlink os "/d/h");
      ok (Kernel.Os.rmdir os "/d"))

let test_large_file_extents () =
  with_ext4 ~disk_blocks:(64 * 1024) (fun _m os _ ->
      let size = 20 * 1024 * 1024 in
      let data = payload size in
      let fd = ok (Kernel.Os.open_ os "/big" Kernel.Os.(creat wronly)) in
      let n = ok (Kernel.Os.pwrite os fd ~pos:0 data) in
      Alcotest.(check int) "wrote all" size n;
      ok (Kernel.Os.fsync os fd);
      ok (Kernel.Os.close os fd);
      Alcotest.(check bool) "roundtrip" true
        (Bytes.equal data (ok (Kernel.Os.read_file os "/big"))))

let test_unlink_frees () =
  with_ext4 (fun _m os _ ->
      let free0 = (Kernel.Os.statfs os).Kernel.Vfs.f_bfree in
      ok (Kernel.Os.write_file os "/f" (payload (256 * 4096)));
      ok (Kernel.Os.sync os);
      Alcotest.(check bool) "consumed" true
        ((Kernel.Os.statfs os).Kernel.Vfs.f_bfree < free0);
      ok (Kernel.Os.unlink os "/f");
      ok (Kernel.Os.sync os);
      Alcotest.(check int) "returned" free0
        (Kernel.Os.statfs os).Kernel.Vfs.f_bfree)

let test_fsync_crash_recovery () =
  in_sim (fun machine ->
      ok (Ext4sim.Ext4.mkfs machine);
      let vfs, h = ok (Ext4sim.Ext4.mount ~background:false machine) in
      let os = Kernel.Os.create vfs in
      let fd = ok (Kernel.Os.open_ os "/j" Kernel.Os.(creat wronly)) in
      let _ = ok (Kernel.Os.write os fd (bytes_of_string "journaled")) in
      ok (Kernel.Os.fsync os fd);
      (* crash before any checkpoint: data lives only in the journal *)
      Device.Ssd.crash (Kernel.Machine.disk machine);
      let vfs2, h2 = ok (Ext4sim.Ext4.mount ~background:false machine) in
      let os2 = Kernel.Os.create vfs2 in
      Alcotest.(check string) "replayed from journal" "journaled"
        (Bytes.to_string (ok (Kernel.Os.read_file os2 "/j")));
      Ext4sim.Ext4.unmount vfs2 h2;
      ignore (vfs, h, os))

let test_unsynced_data_lost_on_crash () =
  in_sim (fun machine ->
      ok (Ext4sim.Ext4.mkfs machine);
      let vfs, h = ok (Ext4sim.Ext4.mount ~background:false machine) in
      let os = Kernel.Os.create vfs in
      ok (Kernel.Os.write_file os "/durable" (bytes_of_string "yes"));
      ok (Kernel.Os.sync os);
      (* not synced: committed lazily only *)
      ok (Kernel.Os.write_file os "/volatile" (bytes_of_string "no"));
      Device.Ssd.crash (Kernel.Machine.disk machine);
      let vfs2, h2 = ok (Ext4sim.Ext4.mount ~background:false machine) in
      let os2 = Kernel.Os.create vfs2 in
      Alcotest.(check string) "synced survives" "yes"
        (Bytes.to_string (ok (Kernel.Os.read_file os2 "/durable")));
      (* the unsynced file may or may not exist, but the fs must be
         consistent: stat must not crash and reads must be well-formed *)
      (match Kernel.Os.stat os2 "/volatile" with
      | Ok _ | Error Kernel.Errno.ENOENT -> ()
      | Error e -> Alcotest.failf "inconsistent fs: %s" (Kernel.Errno.to_string e));
      Ext4sim.Ext4.unmount vfs2 h2;
      ignore (vfs, h, os))

let test_lazy_commit_batches () =
  with_ext4 (fun _m os h ->
      for i = 0 to 99 do
        ok (Kernel.Os.write_file os (Printf.sprintf "/f%d" i) (bytes_of_string "x"))
      done;
      ok (Kernel.Os.sync os);
      let commits, _ = Ext4sim.Ext4.journal_stats h in
      (* 100 creates+writes must batch into very few journal commits —
         the structural advantage over the xv6 log *)
      Alcotest.(check bool)
        (Printf.sprintf "few commits (%d)" commits)
        true (commits <= 5))

let test_many_files_spread () =
  with_ext4 (fun _m os _ ->
      ok (Kernel.Os.mkdir os "/spread");
      for i = 0 to 299 do
        ok
          (Kernel.Os.write_file os
             (Printf.sprintf "/spread/f%03d" i)
             (bytes_of_string (string_of_int i)))
      done;
      for i = 0 to 299 do
        Alcotest.(check string)
          (Printf.sprintf "f%03d" i)
          (string_of_int i)
          (read_str os (Printf.sprintf "/spread/f%03d" i))
      done)

(* regression: a partial append into a block straddling EOF must preserve
   the block's earlier contents (this once wiped directory blocks) *)
let test_partial_append_preserves_block () =
  with_ext4 (fun _m os _ ->
      ok (Kernel.Os.mkdir os "/dir");
      for i = 0 to 149 do
        ok
          (Kernel.Os.write_file os
             (Printf.sprintf "/dir/f%03d" i)
             (bytes_of_string (string_of_int i)))
      done;
      let entries = ok (Kernel.Os.readdir os "/dir") in
      Alcotest.(check int) "all dirents intact" 152 (List.length entries);
      for i = 0 to 149 do
        ok (Kernel.Os.unlink os (Printf.sprintf "/dir/f%03d" i))
      done;
      ok (Kernel.Os.rmdir os "/dir");
      (* also for file data: two partial appends within one block *)
      let fd = ok (Kernel.Os.open_ os "/appends" Kernel.Os.(creat (appendf wronly))) in
      let _ = ok (Kernel.Os.write os fd (bytes_of_string "first")) in
      ok (Kernel.Os.fsync os fd);
      let _ = ok (Kernel.Os.write os fd (bytes_of_string "+second")) in
      ok (Kernel.Os.fsync os fd);
      ok (Kernel.Os.close os fd);
      Alcotest.(check string) "both appends" "first+second"
        (read_str os "/appends"))

(* a transaction bigger than one descriptor block's target list must span
   multiple descriptors and still recover *)
let test_multi_descriptor_recovery () =
  in_sim ~disk_blocks:(64 * 1024) (fun machine ->
      ok (Ext4sim.Ext4.mkfs machine);
      let vfs, h = ok (Ext4sim.Ext4.mount ~background:false machine) in
      let os = Kernel.Os.create vfs in
      (* > 1016 blocks in one fsync-committed burst *)
      let data = payload (1500 * 4096) in
      let fd = ok (Kernel.Os.open_ os "/huge" Kernel.Os.(creat wronly)) in
      let _ = ok (Kernel.Os.pwrite os fd ~pos:0 data) in
      ok (Kernel.Os.fsync os fd);
      Device.Ssd.crash (Kernel.Machine.disk machine);
      let vfs2, h2 = ok (Ext4sim.Ext4.mount ~background:false machine) in
      let os2 = Kernel.Os.create vfs2 in
      Alcotest.(check bool) "multi-descriptor tx replayed" true
        (Bytes.equal data (ok (Kernel.Os.read_file os2 "/huge")));
      Ext4sim.Ext4.unmount vfs2 h2;
      ignore (vfs, h, os))

(* torn journal writes (random partial survival) must never corrupt: either
   the transaction replays whole or not at all *)
let ext4_crash_trial seed =
  let result = ref true in
  in_sim ~disk_blocks:32768 (fun machine ->
      ok (Ext4sim.Ext4.mkfs machine);
      let vfs, h = ok (Ext4sim.Ext4.mount ~background:false machine) in
      let os = Kernel.Os.create vfs in
      let rng = Sim.Rng.create seed in
      let synced = ref [] in
      for step = 0 to 29 do
        let path = Printf.sprintf "/f%d" step in
        let data = payload ~seed:(seed + step) (512 + Sim.Rng.int rng 30000) in
        let fd = ok (Kernel.Os.open_ os path Kernel.Os.(creat wronly)) in
        ignore (ok (Kernel.Os.pwrite os fd ~pos:0 data));
        if Sim.Rng.bool rng then begin
          ok (Kernel.Os.fsync os fd);
          synced := (path, data) :: !synced
        end;
        ok (Kernel.Os.close os fd)
      done;
      Device.Ssd.crash ~survive:(Sim.Rng.float rng) ~rng
        (Kernel.Machine.disk machine);
      let vfs2, h2 = ok (Ext4sim.Ext4.mount ~background:false machine) in
      let os2 = Kernel.Os.create vfs2 in
      List.iter
        (fun (path, data) ->
          match Kernel.Os.read_file os2 path with
          | Ok got when Bytes.equal got data -> ()
          | Ok _ ->
              Printf.eprintf "ext4_crash %d: %s mismatch\n" seed path;
              result := false
          | Error e ->
              Printf.eprintf "ext4_crash %d: %s lost (%s)\n" seed path
                (Kernel.Errno.to_string e);
              result := false)
        !synced;
      Ext4sim.Ext4.unmount vfs2 h2;
      (let r = Ext4sim.Fsck4.check_device (Kernel.Machine.disk machine) in
       if not (Ext4sim.Fsck4.ok r) then begin
         Printf.eprintf "ext4_crash %d: fsck: %s\n" seed
           (String.concat " | " r.Ext4sim.Fsck4.errors);
         result := false
       end);
      ignore (vfs, h, os));
  !result

let prop_ext4_crash =
  QCheck.Test.make ~count:15 ~name:"ext4 random crash: fsynced data survives"
    QCheck.(int_bound 10_000)
    ext4_crash_trial

(* pinned rerun of a single trial (reproduce with BENTO_SEED=n) *)
let test_ext4_crash_pinned () =
  with_seed ~default:1 @@ fun seed ->
  Alcotest.(check bool)
    (Printf.sprintf "ext4 crash trial seed %d" seed)
    true (ext4_crash_trial seed)

(* Running log recovery on an already-recovered image must change nothing
   on disk: jbd2 bounds replay by the journal superblock sequence, so the
   stale transactions still sitting in the log area are skipped the second
   time around. *)
let test_jbd2_recover_idempotent () =
  with_seed ~default:23 @@ fun seed ->
  in_sim ~disk_blocks:32768 (fun machine ->
      ok (Ext4sim.Ext4.mkfs machine);
      let vfs, h = ok (Ext4sim.Ext4.mount ~background:false machine) in
      let os = Kernel.Os.create vfs in
      let rng = Sim.Rng.create seed in
      for i = 0 to 11 do
        let path = Printf.sprintf "/f%d" i in
        let data = payload ~seed:(seed + i) (512 + Sim.Rng.int rng 20000) in
        let fd = ok (Kernel.Os.open_ os path Kernel.Os.(creat wronly)) in
        ignore (ok (Kernel.Os.pwrite os fd ~pos:0 data));
        if i mod 3 = 0 then ok (Kernel.Os.fsync os fd);
        ok (Kernel.Os.close os fd)
      done;
      (* power failure leaves committed-but-unckeckpointed transactions in
         the journal; do NOT remount (that would recover for us) *)
      let dev = Kernel.Machine.disk machine in
      Device.Ssd.crash ~survive:0.5 ~rng dev;
      let sb =
        match Ext4sim.Layout4.get_superblock (Device.Ssd.Offline.read dev 1) with
        | Ok sb -> sb
        | Error e -> Alcotest.fail e
      in
      let snapshot () =
        Array.init (Device.Ssd.nblocks dev) (fun i ->
            Device.Ssd.Offline.stable_read dev i)
      in
      let recover_once () =
        let bc = Kernel.Bcache.create machine in
        let j =
          Ext4sim.Jbd2.create machine bc
            ~jstart:sb.Ext4sim.Layout4.journal_start
            ~jlen:sb.Ext4sim.Layout4.journal_len
        in
        Ext4sim.Jbd2.recover j;
        Kernel.Bcache.flush bc
      in
      recover_once ();
      let once = snapshot () in
      recover_once ();
      let twice = snapshot () in
      Array.iteri
        (fun i a ->
          if not (Bytes.equal a twice.(i)) then
            Alcotest.failf "block %d differs after second recover" i)
        once;
      ignore (vfs, h, os))

let fsck4_clean machine label =
  let r = Ext4sim.Fsck4.check_device (Kernel.Machine.disk machine) in
  if not (Ext4sim.Fsck4.ok r) then
    Alcotest.failf "%s: fsck.ext4: %s" label
      (String.concat " | " r.Ext4sim.Fsck4.errors)

let test_fsck4_populated () =
  in_sim (fun machine ->
      ok (Ext4sim.Ext4.mkfs machine);
      let vfs, h = ok (Ext4sim.Ext4.mount ~background:false machine) in
      let os = Kernel.Os.create vfs in
      ok (Kernel.Os.mkdir os "/a");
      for i = 0 to 20 do
        ok (Kernel.Os.write_file os (Printf.sprintf "/a/f%d" i) (payload (4096 * (1 + i))))
      done;
      ok (Kernel.Os.link os "/a/f0" "/a/hard");
      ok (Kernel.Os.symlink os "/a/f1" "/a/soft");
      ok (Kernel.Os.unlink os "/a/f2");
      let fd = ok (Kernel.Os.open_ os "/a/f3" Kernel.Os.rdwr) in
      ok (Kernel.Os.ftruncate os fd 1000);
      ok (Kernel.Os.close os fd);
      Ext4sim.Ext4.unmount vfs h;
      fsck4_clean machine "populated ext4";
      let r = Ext4sim.Fsck4.check_device (Kernel.Machine.disk machine) in
      Alcotest.(check int) "files" 20 r.Ext4sim.Fsck4.files;
      Alcotest.(check int) "dirs" 2 r.Ext4sim.Fsck4.directories;
      Alcotest.(check int) "symlinks" 1 r.Ext4sim.Fsck4.symlinks)

(* Image surgery: corrupt a clean image holding one small file, then
   fsck must report one of the expected errors. *)
let flip_bit dev blk bit =
  let data = Device.Ssd.Offline.read dev blk in
  let byte = Char.code (Bytes.get data (bit / 8)) in
  Bytes.set data (bit / 8) (Char.chr (byte lxor (1 lsl (bit mod 8))));
  Device.Ssd.Offline.write dev blk data

let edit_dinode dev sb ino f =
  let module L = Ext4sim.Layout4 in
  let blk = L.inode_block sb ino and slot = L.inode_slot sb ino in
  let data = Device.Ssd.Offline.read dev blk in
  (match L.get_dinode data ~slot with
  | Ok d -> L.put_dinode data ~slot (f d)
  | Error e -> Alcotest.fail e);
  Device.Ssd.Offline.write dev blk data

let test_fsck4_reports corrupt () =
  in_sim (fun machine ->
      ok (Ext4sim.Ext4.mkfs machine);
      let vfs, h = ok (Ext4sim.Ext4.mount ~background:false machine) in
      let os = Kernel.Os.create vfs in
      ok (Kernel.Os.write_file os "/f" (payload 8192));
      let ino = (ok (Kernel.Os.stat os "/f")).Kernel.Vfs.st_ino in
      Ext4sim.Ext4.unmount vfs h;
      fsck4_clean machine "before surgery";
      let dev = Kernel.Machine.disk machine in
      let sb =
        match Ext4sim.Layout4.get_superblock (Device.Ssd.Offline.read dev 1) with
        | Ok sb -> sb
        | Error e -> Alcotest.fail e
      in
      let expected = corrupt dev sb ino in
      let errors = (Ext4sim.Fsck4.check_device dev).Ext4sim.Fsck4.errors in
      if not (List.exists (fun e -> List.mem e expected) errors) then
        Alcotest.failf "expected one of [%s], got [%s]"
          (String.concat " | " expected)
          (String.concat " | " errors))

let fsck4_corruptions =
  let module L = Ext4sim.Layout4 in
  [
    (* a data-area block marked used that no inode owns is a leak *)
    ( "a leaked block",
      fun dev sb _ ->
        let last = L.group_start sb 0 + sb.L.group_size - 1 in
        flip_bit dev (L.group_block_bitmap sb 0) (last - L.group_start sb 0);
        [ Printf.sprintf "block %d marked used but unreferenced" last ] );
    (* free group metadata could be handed out as file data *)
    ( "free group metadata",
      fun dev sb _ ->
        let ibm = L.group_inode_bitmap sb 0 in
        flip_bit dev (L.group_block_bitmap sb 0) (ibm - L.group_start sb 0);
        [ Printf.sprintf "group 0 metadata block %d free in bitmap" ibm ] );
    (* an extent over group metadata, which the bitmap marks used *)
    ( "file data in group metadata",
      fun dev sb ino ->
        let ibm = L.group_inode_bitmap sb 0 in
        edit_dinode dev sb ino (fun d ->
            let inline = Array.copy d.L.inline in
            inline.(0) <- { (inline.(0)) with L.e_physical = ibm };
            { d with L.inline });
        [ Printf.sprintf "inode %d: block %d is group 0 metadata" ino ibm ] );
    (* a leaf pointer into another inode's data, which the bitmap marks
       used, is a doubly-owned block *)
    ( "a shared leaf block",
      fun dev sb ino ->
        let root_data = L.group_data_start sb 0 in
        edit_dinode dev sb ino (fun d ->
            let leaves = Array.copy d.L.leaves in
            leaves.(0) <- root_data;
            { d with L.leaves });
        [
          Printf.sprintf "leaf block %d owned by inode %d and inode %d"
            root_data L.root_ino ino;
          Printf.sprintf "block %d owned by inode %d and inode %d" root_data
            ino L.root_ino;
        ] );
  ]

let test_fsck4_after_crash_recovery () =
  with_seed ~default:31 @@ fun seed ->
  in_sim (fun machine ->
      ok (Ext4sim.Ext4.mkfs machine);
      let vfs, h = ok (Ext4sim.Ext4.mount ~background:false machine) in
      let os = Kernel.Os.create vfs in
      for i = 0 to 15 do
        let fd = ok (Kernel.Os.open_ os (Printf.sprintf "/f%d" i) Kernel.Os.(creat wronly)) in
        ignore (ok (Kernel.Os.pwrite os fd ~pos:0 (payload (8192 + (i * 512)))));
        if i mod 2 = 0 then ok (Kernel.Os.fsync os fd);
        ok (Kernel.Os.close os fd)
      done;
      let rng = Sim.Rng.create seed in
      Device.Ssd.crash ~survive:0.4 ~rng (Kernel.Machine.disk machine);
      (* mount runs journal recovery; unmount checkpoints *)
      let vfs2, h2 = ok (Ext4sim.Ext4.mount ~background:false machine) in
      Ext4sim.Ext4.unmount vfs2 h2;
      fsck4_clean machine "ext4 after crash+recovery";
      ignore (vfs, h, os))

let test_persistence_across_remount () =
  in_sim (fun machine ->
      ok (Ext4sim.Ext4.mkfs machine);
      let vfs, h = ok (Ext4sim.Ext4.mount ~background:false machine) in
      let os = Kernel.Os.create vfs in
      ok (Kernel.Os.write_file os "/p" (payload 65536));
      let expect = ok (Kernel.Os.read_file os "/p") in
      Ext4sim.Ext4.unmount vfs h;
      let vfs2, h2 = ok (Ext4sim.Ext4.mount ~background:false machine) in
      let os2 = Kernel.Os.create vfs2 in
      Alcotest.(check bool) "same content" true
        (Bytes.equal expect (ok (Kernel.Os.read_file os2 "/p")));
      Ext4sim.Ext4.unmount vfs2 h2)

(* mkfs over a used device must start a fresh journal: the previous file
   system's committed transactions must not replay onto the new one. *)
let test_remkfs_forgets_old_journal () =
  in_sim (fun machine ->
      ok (Ext4sim.Ext4.mkfs machine);
      let vfs, h = ok (Ext4sim.Ext4.mount ~background:false machine) in
      let os = Kernel.Os.create vfs in
      for i = 0 to 9 do
        ok (Kernel.Os.write_file os (Printf.sprintf "/old%d" i) (payload 4096))
      done;
      ok (Kernel.Os.sync os);
      Ext4sim.Ext4.unmount vfs h;
      ok (Ext4sim.Ext4.mkfs machine);
      let vfs2, h2 = ok (Ext4sim.Ext4.mount ~background:false machine) in
      let os2 = Kernel.Os.create vfs2 in
      let names =
        List.map (fun d -> d.Kernel.Vfs.d_name) (ok (Kernel.Os.readdir os2 "/"))
      in
      Alcotest.(check (list string))
        "fresh root holds only . and .." [ "."; ".." ] (List.sort compare names);
      Ext4sim.Ext4.unmount vfs2 h2;
      fsck4_clean machine "ext4 re-mkfs")

let suite =
  [
    tc "basic ops" `Quick test_basic;
    tc "large file via extents" `Quick test_large_file_extents;
    tc "unlink frees blocks" `Quick test_unlink_frees;
    tc "fsync + crash recovery" `Quick test_fsync_crash_recovery;
    tc "crash consistency without sync" `Quick test_unsynced_data_lost_on_crash;
    tc "lazy group commit batches" `Quick test_lazy_commit_batches;
    tc "many files" `Quick test_many_files_spread;
    tc "partial append preserves block" `Quick test_partial_append_preserves_block;
    tc "multi-descriptor recovery" `Quick test_multi_descriptor_recovery;
    tc "crash trial (BENTO_SEED pinned)" `Quick test_ext4_crash_pinned;
    tc "jbd2 recover idempotent" `Quick test_jbd2_recover_idempotent;
    QCheck_alcotest.to_alcotest prop_ext4_crash;
    tc "fsck.ext4 populated" `Quick test_fsck4_populated;
    tc "fsck.ext4 after crash" `Quick test_fsck4_after_crash_recovery;
    tc "persistence across remount" `Quick test_persistence_across_remount;
    tc "re-mkfs forgets the old journal" `Quick test_remkfs_forgets_old_journal;
  ]
  @ List.map
      (fun (name, corrupt) ->
        tc ("fsck.ext4 reports " ^ name) `Quick (test_fsck4_reports corrupt))
      fsck4_corruptions
