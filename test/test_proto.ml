(** Round-trip property tests of the FUSE wire protocol. *)

let tc = Alcotest.test_case

let gen_name =
  QCheck.Gen.(
    map
      (fun cs -> String.concat "" (List.map (String.make 1) cs))
      (list_size (int_range 1 59) (char_range 'a' 'z')))

let gen_ino = QCheck.Gen.int_range 1 1_000_000
let gen_off = QCheck.Gen.int_range 0 (1 lsl 30)

let gen_request : Fusesim.Proto.request QCheck.Gen.t =
  let open QCheck.Gen in
  let open Fusesim.Proto in
  oneof
    [
      map2 (fun dir name -> Lookup { dir; name }) gen_ino gen_name;
      map (fun ino -> Getattr { ino }) gen_ino;
      map2 (fun dir name -> Create { dir; name }) gen_ino gen_name;
      map2 (fun dir name -> Mkdir { dir; name }) gen_ino gen_name;
      map2 (fun dir name -> Unlink { dir; name }) gen_ino gen_name;
      map2 (fun dir name -> Rmdir { dir; name }) gen_ino gen_name;
      map
        (fun (((olddir, oldname), newdir), newname) ->
          Rename { olddir; oldname; newdir; newname })
        (pair (pair (pair gen_ino gen_name) gen_ino) gen_name);
      map
        (fun ((ino, dir), name) -> Link { ino; dir; name })
        (pair (pair gen_ino gen_ino) gen_name);
      map
        (fun ((ino, off), len) -> Read { ino; off; len })
        (pair (pair gen_ino gen_off) (int_range 0 (1 lsl 20)));
      map
        (fun ((ino, off), data) ->
          Write { ino; off; data = Bytes.of_string data })
        (pair (pair gen_ino gen_off) (string_size (int_range 0 4096)));
      map2 (fun ino size -> Truncate { ino; size }) gen_ino gen_off;
      map (fun ino -> Fsync { ino }) gen_ino;
      return Syncfs;
      map (fun ino -> Readdir { ino }) gen_ino;
      map (fun ino -> Open { ino }) gen_ino;
      map (fun ino -> Release { ino }) gen_ino;
      return Statfs;
      return Destroy;
      map2 (fun dir prog -> ReaddirFilter { dir; prog }) gen_ino gen_name;
      map2 (fun ino fbn -> Bmap { ino; fbn }) gen_ino gen_off;
    ]

let request_eq (a : Fusesim.Proto.request) (b : Fusesim.Proto.request) =
  match (a, b) with
  | Fusesim.Proto.Write w1, Fusesim.Proto.Write w2 ->
      w1.ino = w2.ino && w1.off = w2.off && Bytes.equal w1.data w2.data
  | _ -> a = b

let prop_request_roundtrip =
  QCheck.Test.make ~count:500 ~name:"request encode/decode roundtrip"
    (QCheck.make gen_request)
    (fun req ->
      let unique = 42 in
      let u, req' =
        Fusesim.Proto.decode_request (Fusesim.Proto.encode_request ~unique req)
      in
      u = unique && request_eq req req')

let gen_attr =
  QCheck.Gen.(
    map
      (fun (((ino, kind), size), nlink) ->
        { Fusesim.Proto.ino; kind; size; nlink })
      (pair (pair (pair gen_ino (int_range 0 2)) gen_off) (int_range 0 100)))

let gen_reply : Fusesim.Proto.reply QCheck.Gen.t =
  let open QCheck.Gen in
  let open Fusesim.Proto in
  oneof
    [
      map
        (fun e -> R_err e)
        (oneofl
           [ Kernel.Errno.ENOENT; Kernel.Errno.EIO; Kernel.Errno.ENOSPC ]);
      return R_none;
      map (fun a -> R_attr a) gen_attr;
      map (fun s -> R_data (Bytes.of_string s)) (string_size (int_range 0 4096));
      map (fun n -> R_written n) (int_range 0 (1 lsl 20));
      map
        (fun des -> R_dirents des)
        (list_size (int_range 0 20)
           (map2 (fun name (ino, kind) -> (name, ino, kind)) gen_name
              (pair gen_ino (int_range 0 2))));
      map
        (fun (((blocks, bfree), files), ffree) ->
          R_statfs { blocks; bfree; files; ffree })
        (pair (pair (pair gen_off gen_off) gen_off) gen_off);
      map
        (fun des -> R_dirents_plus des)
        (list_size (int_range 0 20) (pair gen_name gen_attr));
      map (fun blk -> R_block blk) gen_off;
    ]

let reply_eq (a : Fusesim.Proto.reply) (b : Fusesim.Proto.reply) =
  match (a, b) with
  | Fusesim.Proto.R_data d1, Fusesim.Proto.R_data d2 -> Bytes.equal d1 d2
  | _ -> a = b

let prop_reply_roundtrip =
  QCheck.Test.make ~count:500 ~name:"reply encode/decode roundtrip"
    (QCheck.make gen_reply)
    (fun rep ->
      let unique = 7 in
      let u, rep' =
        Fusesim.Proto.decode_reply (Fusesim.Proto.encode_reply ~unique rep)
      in
      u = unique && reply_eq rep rep')

(* Every bad frame must raise [Malformed], the one exception the daemon
   loop catches. A length field near [max_int] must not overflow the
   bounds check into an [Invalid_argument] from [Bytes.sub]. *)
let test_malformed () =
  let rejects what decode =
    match decode () with
    | exception Fusesim.Proto.Malformed _ -> ()
    | exception e ->
        Alcotest.failf "%s: %s instead of Malformed" what (Printexc.to_string e)
    | _ -> Alcotest.failf "%s: accepted" what
  in
  rejects "short message" (fun () ->
      Fusesim.Proto.decode_request (Bytes.make 1 '\255'));
  rejects "garbage opcode" (fun () ->
      Fusesim.Proto.decode_request (Bytes.make 32 '\255'));
  let with_length msg n =
    let m = Bytes.copy msg in
    Bytes.set_int64_le m (Bytes.length m - 8) (Int64.of_int n);
    m
  in
  let write =
    Fusesim.Proto.encode_request ~unique:1
      (Fusesim.Proto.Write { ino = 2; off = 0; data = Bytes.empty })
  in
  let data =
    Fusesim.Proto.encode_reply ~unique:1 (Fusesim.Proto.R_data Bytes.empty)
  in
  List.iter
    (fun n ->
      rejects
        (Printf.sprintf "WRITE of %d bytes" n)
        (fun () -> Fusesim.Proto.decode_request (with_length write n));
      rejects
        (Printf.sprintf "R_data of %d bytes" n)
        (fun () -> Fusesim.Proto.decode_reply (with_length data n)))
    [ max_int - 3; max_int; 1 ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_request_roundtrip;
    QCheck_alcotest.to_alcotest prop_reply_roundtrip;
    tc "malformed messages rejected" `Quick test_malformed;
  ]
