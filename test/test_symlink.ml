(** Symbolic-link tests across the three runtimes (Bento kernel, C-VFS,
    FUSE) and ext4. *)

open Helpers

let tc = Alcotest.test_case

let read_str os path = Bytes.to_string (ok (Kernel.Os.read_file os path))

let exercise os =
  ok (Kernel.Os.mkdir os "/real");
  ok (Kernel.Os.write_file os "/real/data" (bytes_of_string "through the link"));
  ok (Kernel.Os.symlink os "/real/data" "/lnk");
  (* follow on open/read *)
  Alcotest.(check string) "read through link" "through the link"
    (read_str os "/lnk");
  (* stat follows, lstat does not *)
  let st = ok (Kernel.Os.stat os "/lnk") in
  Alcotest.(check bool) "stat follows" true (st.Kernel.Vfs.st_kind = Kernel.Vfs.Reg);
  let lst = ok (Kernel.Os.lstat os "/lnk") in
  Alcotest.(check bool) "lstat sees the link" true
    (lst.Kernel.Vfs.st_kind = Kernel.Vfs.Symlink);
  Alcotest.(check string) "readlink" "/real/data" (ok (Kernel.Os.readlink os "/lnk"));
  (* writes through the link land in the target *)
  let fd = ok (Kernel.Os.open_ os "/lnk" Kernel.Os.wronly) in
  let _ = ok (Kernel.Os.pwrite os fd ~pos:0 (bytes_of_string "THROUGH")) in
  ok (Kernel.Os.close os fd);
  Alcotest.(check string) "target updated" "THROUGH the link"
    (read_str os "/real/data");
  (* symlink to a directory resolves mid-path *)
  ok (Kernel.Os.symlink os "/real" "/dirlnk");
  Alcotest.(check string) "dir link mid-path" "THROUGH the link"
    (read_str os "/dirlnk/data");
  (* dangling link: readable as a link, ENOENT through it *)
  ok (Kernel.Os.symlink os "/nowhere" "/dangling");
  check_res "dangling follow" Kernel.Errno.ENOENT (Kernel.Os.stat os "/dangling");
  Alcotest.(check string) "dangling readlink" "/nowhere"
    (ok (Kernel.Os.readlink os "/dangling"));
  (* unlink removes the link, not the target *)
  ok (Kernel.Os.unlink os "/lnk");
  Alcotest.(check string) "target survives" "THROUGH the link"
    (read_str os "/real/data");
  (* loops are detected *)
  ok (Kernel.Os.symlink os "/loopB" "/loopA");
  ok (Kernel.Os.symlink os "/loopA" "/loopB");
  check_res "ELOOP" Kernel.Errno.ELOOP (Kernel.Os.stat os "/loopA")

let test_stack k () = with_stack k exercise

let test_symlink_persists () =
  in_sim (fun machine ->
      ok (Bento.Bentofs.mkfs machine xv6_maker);
      let vfs, h = ok (Bento.Bentofs.mount ~background:false machine xv6_maker) in
      let os = Kernel.Os.create vfs in
      ok (Kernel.Os.write_file os "/t" (bytes_of_string "x"));
      ok (Kernel.Os.symlink os "/t" "/l");
      Bento.Bentofs.unmount vfs h;
      let vfs, h = ok (Bento.Bentofs.mount ~background:false machine xv6_maker) in
      let os = Kernel.Os.create vfs in
      Alcotest.(check string) "link survives remount" "/t"
        (ok (Kernel.Os.readlink os "/l"));
      Alcotest.(check string) "follows after remount" "x"
        (Bytes.to_string (ok (Kernel.Os.read_file os "/l")));
      Bento.Bentofs.unmount vfs h)

let suite =
  [
    tc "bento xv6fs" `Quick (test_stack Stacks.Bento);
    tc "c-kernel xv6" `Quick (test_stack Stacks.Ckernel);
    tc "fuse" `Quick (test_stack Stacks.Fuse);
    tc "ext4" `Quick (test_stack Stacks.Ext4);
    tc "persists across remount" `Quick test_symlink_persists;
  ]
