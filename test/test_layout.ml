(** Property tests of the on-disk serialisation layers (xv6 + ext4 + byte
    accessors). *)

let tc = Alcotest.test_case

let gen_name =
  QCheck.Gen.(
    map
      (fun cs -> String.concat "" (List.map (String.make 1) cs))
      (list_size (int_range 1 Xv6fs.Layout.max_name) (char_range 'a' 'z')))

let prop_bytesio_u64 =
  QCheck.Test.make ~count:300 ~name:"bytesio u64 roundtrip"
    QCheck.(int_bound max_int)
    (fun v ->
      let b = Bytes.create 16 in
      Util.Bytesio.set_int_as_u64 b 4 v;
      Util.Bytesio.get_int64_as_int b 4 = v)

let prop_bytesio_string =
  QCheck.Test.make ~count:300 ~name:"bytesio fixed string roundtrip"
    (QCheck.make gen_name)
    (fun s ->
      let b = Bytes.make 64 '\xff' in
      Util.Bytesio.set_string b ~off:2 ~width:60 s;
      Util.Bytesio.get_string b ~off:2 ~width:60 = s)

let gen_dinode =
  QCheck.Gen.(
    map
      (fun ((ftype, nlink), (size, addrs)) ->
        {
          Xv6fs.Layout.ftype =
            (match ftype with
            | 0 -> Xv6fs.Layout.F_dir
            | 1 -> Xv6fs.Layout.F_file
            | _ -> Xv6fs.Layout.F_symlink);
          nlink;
          size;
          addrs = Array.of_list addrs;
        })
      (pair
         (pair (int_range 0 2) (int_range 0 1000))
         (pair (int_range 0 Xv6fs.Layout.max_file_size)
            (list_repeat (Xv6fs.Layout.ndirect + 2) (int_range 0 0xFFFFFF)))))

let prop_dinode_roundtrip =
  QCheck.Test.make ~count:300 ~name:"xv6 dinode put/get roundtrip"
    (QCheck.make gen_dinode)
    (fun d ->
      let block = Bytes.make Xv6fs.Layout.block_size '\000' in
      let slot = 7 in
      Xv6fs.Layout.put_dinode block ~slot d;
      match Xv6fs.Layout.get_dinode block ~slot with
      | Ok d' ->
          d'.Xv6fs.Layout.ftype = d.Xv6fs.Layout.ftype
          && d'.Xv6fs.Layout.nlink = d.Xv6fs.Layout.nlink
          && d'.Xv6fs.Layout.size = d.Xv6fs.Layout.size
          && d'.Xv6fs.Layout.addrs = d.Xv6fs.Layout.addrs
      | Error _ -> false)

let prop_dirent_roundtrip =
  QCheck.Test.make ~count:300 ~name:"xv6 dirent put/get roundtrip"
    QCheck.(pair (make gen_name) (int_range 1 1_000_000))
    (fun (name, ino) ->
      let block = Bytes.make Xv6fs.Layout.block_size '\000' in
      Xv6fs.Layout.put_dirent block ~slot:3 ~ino ~name;
      Xv6fs.Layout.get_dirent block ~slot:3 = Some (ino, name)
      && Xv6fs.Layout.get_dirent block ~slot:2 = None)

let prop_superblock_roundtrip =
  QCheck.Test.make ~count:200 ~name:"xv6 superblock roundtrip"
    QCheck.(pair (int_range 4096 (1 lsl 24)) (int_range 64 200_000))
    (fun (size, ninodes) ->
      let sb = Xv6fs.Layout.compute ~size ~ninodes ~nlog:126 in
      let b = Bytes.make Xv6fs.Layout.block_size '\000' in
      Xv6fs.Layout.put_superblock b sb;
      Xv6fs.Layout.get_superblock b = Ok sb)

let prop_log_header_roundtrip =
  QCheck.Test.make ~count:200 ~name:"xv6 log header roundtrip"
    QCheck.(list_of_size (QCheck.Gen.int_range 0 120) (int_range 1 100_000))
    (fun targets ->
      let h =
        {
          Xv6fs.Layout.n = List.length targets;
          checksum = 0x1234_5678_9ABCL;
          targets = Array.of_list targets;
        }
      in
      let b = Bytes.make Xv6fs.Layout.block_size '\000' in
      Xv6fs.Layout.put_log_header b h;
      let h' = Xv6fs.Layout.get_log_header b in
      h'.Xv6fs.Layout.n = h.Xv6fs.Layout.n
      && h'.Xv6fs.Layout.targets = h.Xv6fs.Layout.targets
      && Int64.equal h'.Xv6fs.Layout.checksum h.Xv6fs.Layout.checksum)

let test_layout_geometry () =
  let sb = Xv6fs.Layout.compute ~size:65536 ~ninodes:4096 ~nlog:126 in
  (* regions must not overlap and must cover the device in order *)
  Alcotest.(check bool) "log after sb" true (sb.Xv6fs.Layout.logstart = 2);
  Alcotest.(check bool) "inodes after log" true
    (sb.Xv6fs.Layout.inodestart = sb.Xv6fs.Layout.logstart + sb.Xv6fs.Layout.nlog);
  Alcotest.(check bool) "bitmap after inodes" true
    (sb.Xv6fs.Layout.bmapstart > sb.Xv6fs.Layout.inodestart);
  Alcotest.(check bool) "data after bitmap" true
    (sb.Xv6fs.Layout.datastart > sb.Xv6fs.Layout.bmapstart);
  Alcotest.(check int) "data block count" (65536 - sb.Xv6fs.Layout.datastart)
    sb.Xv6fs.Layout.nblocks;
  (* inode addressing stays inside the inode region *)
  let last = Xv6fs.Layout.iblock sb (sb.Xv6fs.Layout.ninodes - 1) in
  Alcotest.(check bool) "inode block bounded" true (last < sb.Xv6fs.Layout.bmapstart)

let prop_checksum_sensitive =
  QCheck.Test.make ~count:100 ~name:"log checksum detects missing block"
    QCheck.(int_range 2 20)
    (fun n ->
      let blocks =
        List.init n (fun i -> Bytes.make 4096 (Char.chr (33 + (i mod 90))))
      in
      let full = Xv6fs.Layout.checksum_blocks blocks in
      let torn = Xv6fs.Layout.checksum_blocks (List.tl blocks) in
      not (Int64.equal full torn))

(* The log checksum and the CAS hash are part of the on-disk formats:
   recovery rejects a log (or a CAS superblock) whose stored checksum does
   not match, so these values must never move. The log constants were
   computed by the original closure-based FNV-1a. *)
let test_checksum_format () =
  let a = Bytes.init 4096 (fun i -> Char.chr (i land 0xff)) in
  let b = Bytes.init 4096 (fun i -> Char.chr (((i * 7) + 3) land 0xff)) in
  List.iter
    (fun (layout, checksum) ->
      let check name expected blocks =
        Alcotest.(check int64) (layout ^ " " ^ name) expected (checksum blocks)
      in
      check "empty" (-3750763034362895579L) [];
      check "one block" 646596641154451423L [ a ];
      check "two blocks" 5681257198133964269L [ a; b ])
    [
      ("xv6", Xv6fs.Layout.checksum_blocks);
      ("ext4", Ext4sim.Layout4.checksum_blocks);
    ];
  (* the CAS content hash is textbook FNV-1a: the published test vectors *)
  List.iter
    (fun (s, expected) ->
      Alcotest.(check int64) ("cas hash " ^ s) expected
        (Util.Fnv.bytes (Bytes.of_string s)))
    [
      ("", 0xcbf29ce484222325L);
      ("a", 0xaf63dc4c8601ec8cL);
      ("foobar", 0x85944171f73967e8L);
    ]

let gen_extent =
  QCheck.Gen.(
    map
      (fun ((l, p), len) ->
        { Ext4sim.Layout4.e_logical = l; e_physical = p; e_len = len })
      (pair (pair (int_range 0 100000) (int_range 1 100000)) (int_range 1 32768)))

let prop_ext4_dinode_roundtrip =
  QCheck.Test.make ~count:300 ~name:"ext4 dinode roundtrip"
    (QCheck.make
       QCheck.Gen.(
         map
           (fun (((kind, nlink), size), (nextents, (inline, leaves))) ->
             {
               Ext4sim.Layout4.kind =
                 (match kind with
                 | 0 -> Ext4sim.Layout4.K_dir
                 | 1 -> Ext4sim.Layout4.K_file
                 | _ -> Ext4sim.Layout4.K_symlink);
               nlink;
               size;
               nextents;
               inline = Array.of_list inline;
               leaves = Array.of_list leaves;
             })
           (pair
              (pair (pair (int_range 0 2) (int_range 0 100)) (int_range 0 (1 lsl 30)))
              (pair (int_range 0 1000)
                 (pair
                    (list_repeat Ext4sim.Layout4.inline_extents gen_extent)
                    (list_repeat Ext4sim.Layout4.leaf_ptrs (int_range 0 100000)))))))
    (fun d ->
      let block = Bytes.make Ext4sim.Layout4.block_size '\000' in
      Ext4sim.Layout4.put_dinode block ~slot:3 d;
      match Ext4sim.Layout4.get_dinode block ~slot:3 with
      | Ok d' -> d' = d
      | Error _ -> false)

let prop_ext4_descriptor_roundtrip =
  QCheck.Test.make ~count:200 ~name:"ext4 journal descriptor roundtrip"
    QCheck.(pair (int_range 1 100000) (list_of_size (QCheck.Gen.int_range 0 500) (int_range 1 1_000_000)))
    (fun (sequence, targets) ->
      let b = Bytes.make Ext4sim.Layout4.block_size '\000' in
      Ext4sim.Layout4.put_descriptor b ~sequence ~count:(List.length targets)
        ~checksum:99L ~targets:(Array.of_list targets);
      match Ext4sim.Layout4.get_descriptor b with
      | Some (s, c, t) ->
          s = sequence && Int64.equal c 99L && t = Array.of_list targets
      | None -> false)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_bytesio_u64;
    QCheck_alcotest.to_alcotest prop_bytesio_string;
    QCheck_alcotest.to_alcotest prop_dinode_roundtrip;
    QCheck_alcotest.to_alcotest prop_dirent_roundtrip;
    QCheck_alcotest.to_alcotest prop_superblock_roundtrip;
    QCheck_alcotest.to_alcotest prop_log_header_roundtrip;
    QCheck_alcotest.to_alcotest prop_checksum_sensitive;
    tc "checksum formats pinned" `Quick test_checksum_format;
    QCheck_alcotest.to_alcotest prop_ext4_dinode_roundtrip;
    QCheck_alcotest.to_alcotest prop_ext4_descriptor_roundtrip;
    tc "layout geometry" `Quick test_layout_geometry;
  ]
