(** Tests of the FUSE userspace stack: the same xv6fs code, mounted through
    the daemon + wire protocol + O_DIRECT user block I/O. *)

open Helpers

let tc = Alcotest.test_case

let with_fuse_handle ?disk_blocks f =
  in_sim ?disk_blocks (fun machine ->
      ok (Bento.Bentofs.mkfs machine xv6_maker);
      let vfs, h = ok (Bento_user.mount ~background:false machine xv6_maker) in
      f machine (Kernel.Os.create vfs) vfs h;
      Bento_user.unmount vfs h)

let with_fuse ?disk_blocks f =
  with_fuse_handle ?disk_blocks (fun machine os vfs _ -> f machine os vfs)

let read_str os path = Bytes.to_string (ok (Kernel.Os.read_file os path))

let test_basic () =
  with_fuse (fun _m os _ ->
      ok (Kernel.Os.mkdir os "/u");
      ok (Kernel.Os.write_file os "/u/f" (bytes_of_string "via fuse"));
      Alcotest.(check string) "read" "via fuse" (read_str os "/u/f");
      let st = ok (Kernel.Os.stat os "/u/f") in
      Alcotest.(check int) "size" 8 st.Kernel.Vfs.st_size;
      ok (Kernel.Os.unlink os "/u/f");
      ok (Kernel.Os.rmdir os "/u"))

let test_fuse_data_survives_into_kernel_mount () =
  in_sim (fun machine ->
      ok (Bento.Bentofs.mkfs machine xv6_maker);
      (* write via FUSE *)
      let vfs, h = ok (Bento_user.mount ~background:false machine xv6_maker) in
      let os = Kernel.Os.create vfs in
      ok (Kernel.Os.write_file os "/x" (bytes_of_string "cross-runtime"));
      Bento_user.unmount vfs h;
      (* read via the in-kernel Bento mount: same code, other services *)
      let vfs2, h2 = ok (Bento.Bentofs.mount ~background:false machine xv6_maker) in
      let os2 = Kernel.Os.create vfs2 in
      Alcotest.(check string) "kernel mount reads fuse-written data"
        "cross-runtime"
        (Bytes.to_string (ok (Kernel.Os.read_file os2 "/x")));
      Bento.Bentofs.unmount vfs2 h2)

let test_fsync_via_fuse () =
  with_fuse (fun machine os _ ->
      let fd = ok (Kernel.Os.open_ os "/f" Kernel.Os.(creat wronly)) in
      let _ = ok (Kernel.Os.write os fd (payload 8192)) in
      let before = Kernel.Machine.now machine in
      ok (Kernel.Os.fsync os fd);
      let elapsed = Int64.sub (Kernel.Machine.now machine) before in
      ok (Kernel.Os.close os fd);
      (* the whole-disk-file fsync penalty must be visible: >= nominal
         512 GB * per-GB scan cost *)
      let c = Kernel.Machine.cost machine in
      let floor = Int64.mul 512L c.Kernel.Cost.odirect_fsync_per_gb in
      Alcotest.(check bool)
        (Printf.sprintf "fsync cost %Ld >= %Ld" elapsed floor)
        true
        (Int64.compare elapsed floor >= 0))

let test_reads_cached_in_kernel () =
  with_fuse (fun machine os _ ->
      ok (Kernel.Os.write_file os "/r" (payload (16 * 4096)));
      let fd = ok (Kernel.Os.open_ os "/r" Kernel.Os.rdonly) in
      let _ = ok (Kernel.Os.pread os fd ~pos:0 ~len:(16 * 4096)) in
      (* second read: kernel page cache, no daemon round-trip *)
      let stats = Kernel.Machine.stats machine in
      ignore stats;
      let t0 = Kernel.Machine.now machine in
      let _ = ok (Kernel.Os.pread os fd ~pos:0 ~len:4096) in
      let dt = Int64.sub (Kernel.Machine.now machine) t0 in
      ok (Kernel.Os.close os fd);
      (* a cached 4K read must be far below one FUSE round-trip + device *)
      Alcotest.(check bool)
        (Printf.sprintf "cached read fast (%Ldns)" dt)
        true
        (Int64.compare dt 20_000L < 0))

let test_many_files_via_fuse () =
  with_fuse (fun _m os _ ->
      for i = 0 to 49 do
        ok
          (Kernel.Os.write_file os
             (Printf.sprintf "/f%02d" i)
             (bytes_of_string (string_of_int i)))
      done;
      for i = 0 to 49 do
        Alcotest.(check string)
          (Printf.sprintf "f%02d" i)
          (string_of_int i)
          (read_str os (Printf.sprintf "/f%02d" i))
      done)

let test_concurrent_requests_correlate () =
  (* many kernel-side fibers in flight at once: the single-threaded daemon
     serialises them, and the unique-id correlation must route every reply
     to its requester *)
  with_fuse (fun machine os _ ->
      let done_ = Sim.Sync.Semaphore.create 0 in
      let failures = ref 0 in
      for w = 0 to 7 do
        Kernel.Machine.spawn machine (fun () ->
            for i = 0 to 9 do
              let path = Printf.sprintf "/w%d-%d" w i in
              let body = Printf.sprintf "payload-%d-%d" w i in
              (match Kernel.Os.write_file os path (bytes_of_string body) with
              | Ok () -> ()
              | Error _ -> incr failures);
              match Kernel.Os.read_file os path with
              | Ok got when Bytes.to_string got = body -> ()
              | _ -> incr failures
            done;
            Sim.Sync.Semaphore.release done_)
      done;
      for _ = 0 to 7 do
        Sim.Sync.Semaphore.acquire done_
      done;
      Alcotest.(check int) "all correlated correctly" 0 !failures)

let test_transport_closed_rejects () =
  in_sim (fun machine ->
      ok (Bento.Bentofs.mkfs machine xv6_maker);
      let vfs, h = ok (Bento_user.mount ~background:false machine xv6_maker) in
      let os = Kernel.Os.create vfs in
      ok (Kernel.Os.write_file os "/x" (bytes_of_string "x"));
      Bento_user.unmount vfs h;
      (* after unmount the connection is closed: further calls must fail
         cleanly, not hang *)
      match Kernel.Os.write_file os "/y" (bytes_of_string "y") with
      | Ok () -> Alcotest.fail "write after unmount succeeded"
      | Error _ -> ()
      | exception Fusesim.Transport.Connection_closed -> ())

(* ------------------------------------------------------------------ *)
(* The wire shape: exactly how many requests the kernel side sends, so  *)
(* the VFS binding cannot quietly change what FUSE pays per operation.  *)

let mb = 256 (* pages *)

let test_writeback_requests () =
  with_fuse_handle (fun _m os _ h ->
      let fd = ok (Kernel.Os.open_ os "/big" Kernel.Os.(creat wronly)) in
      let _ = ok (Kernel.Os.write os fd (payload (mb * 4096))) in
      let before = fuse_requests h in
      ok (Kernel.Os.fsync os fd);
      (* 256 dirty pages go out as 8 WRITEs of 32 pages (128 KB, the
         max_write), then one FSYNC. *)
      Alcotest.(check int)
        "requests per 1 MB fsync" 9
        (fuse_requests h - before);
      ok (Kernel.Os.close os fd))

let test_readahead_requests () =
  with_fuse_handle (fun _m os vfs h ->
      ok (Kernel.Os.write_file os "/seq" (payload (mb * 4096)));
      ok (Kernel.Os.sync os);
      ok (Kernel.Vfs.drop_caches vfs);
      let fd = ok (Kernel.Os.open_ os "/seq" Kernel.Os.rdonly) in
      let before = fuse_requests h in
      for i = 0 to mb - 1 do
        ignore (ok (Kernel.Os.pread os fd ~pos:(i * 4096) ~len:4096))
      done;
      (* One READ for the first fault, then one per readahead window:
         4, 8 and 16 pages, seven of 32 pages (128 KB), and the 3-page
         tail. *)
      Alcotest.(check int) "requests per cold 1 MB read" 12
        (fuse_requests h - before);
      ok (Kernel.Os.close os fd))

let suite =
  [
    tc "basic ops over fuse" `Quick test_basic;
    tc "fuse data readable by kernel mount" `Quick
      test_fuse_data_survives_into_kernel_mount;
    tc "whole-file fsync penalty" `Quick test_fsync_via_fuse;
    tc "reads served by kernel page cache" `Quick test_reads_cached_in_kernel;
    tc "many files" `Quick test_many_files_via_fuse;
    tc "concurrent request correlation" `Quick test_concurrent_requests_correlate;
    tc "closed transport rejects" `Quick test_transport_closed_rejects;
    tc "1 MB writeback: 128 KB WRITEs" `Quick test_writeback_requests;
    tc "cold read: one READ per window" `Quick test_readahead_requests;
  ]
