(** Pushdown subsystem tests (ISSUE 10): capability safety, budget
    aborts, exact crossing accounting for resubmitted I/O, and seeded
    equivalence of every pushed-down program against the plain
    multi-call path it replaces. *)

open Helpers

let reg machine = Kernel.Pushdown.registry machine

let with_fuse ?disk_blocks f =
  in_sim ?disk_blocks (fun machine ->
      ok (Bento.Bentofs.mkfs machine xv6_maker);
      let vfs, h = ok (Bento_user.mount ~background:false machine xv6_maker) in
      let os = Kernel.Os.create vfs in
      f machine os h;
      Bento_user.unmount vfs h)

let fanout_bits = Workloads.Pushdown_bench.walk_fanout_bits
let depth = Workloads.Pushdown_bench.walk_depth

let build os ~nkeys ~seed =
  Workloads.Pushdown_bench.build_index os ~path:"/idx" ~fanout_bits ~depth
    ~nkeys ~seed

let register_walk ?budget machine ~name =
  let r = reg machine in
  let cap = Kernel.Pushdown.grant r ~client:"test" in
  Result.get_ok
    (Kernel.Pushdown.register r ~cap ~name ?budget
       (Kernel.Pushdown.Extent_walk { fanout_bits; depth }))

(* ------------------------------------------------------------------ *)
(* Capability + validation safety.                                     *)

let test_capability () =
  with_xv6 (fun machine _os _vfs _h ->
      let r = reg machine in
      let cap = Kernel.Pushdown.grant r ~client:"tenant-a" in
      (* revoked capability: registration refused *)
      Kernel.Pushdown.revoke cap;
      check_res "revoked cap" Kernel.Errno.EPERM
        (Kernel.Pushdown.register r ~cap ~name:"f"
           (Kernel.Pushdown.Dir_filter { contains = "x" }));
      (* a capability from another machine's registry is foreign here *)
      let other = Kernel.Machine.create ~disk_blocks:64 ~block_size:4096 () in
      let foreign = Kernel.Pushdown.grant (reg other) ~client:"intruder" in
      check_res "foreign cap" Kernel.Errno.EPERM
        (Kernel.Pushdown.register r ~cap:foreign ~name:"f"
           (Kernel.Pushdown.Dir_filter { contains = "x" }));
      Alcotest.(check bool)
        "nothing registered" true
        (Kernel.Pushdown.find r "f" = None))

let test_validation () =
  with_xv6 (fun machine _os _vfs _h ->
      let r = reg machine in
      let cap = Kernel.Pushdown.grant r ~client:"t" in
      let inval name prog =
        check_res name Kernel.Errno.EINVAL
          (Kernel.Pushdown.register r ~cap ~name prog)
      in
      inval "empty pattern" (Kernel.Pushdown.Dir_filter { contains = "" });
      inval "fanout 0"
        (Kernel.Pushdown.Extent_walk { fanout_bits = 0; depth = 2 });
      inval "fanout too wide"
        (Kernel.Pushdown.Extent_walk { fanout_bits = 11; depth = 2 });
      inval "depth 0"
        (Kernel.Pushdown.Extent_walk { fanout_bits = 4; depth = 0 });
      inval "depth 17"
        (Kernel.Pushdown.Extent_walk { fanout_bits = 4; depth = 17 });
      check_res "budget 0" Kernel.Errno.EINVAL
        (Kernel.Pushdown.register r ~cap ~name:"b" ~budget:0
           (Kernel.Pushdown.Dir_filter { contains = "x" })))

let test_unregistered_and_wrong_kind () =
  with_xv6 (fun machine os _vfs _h ->
      check_res "unregistered filter" Kernel.Errno.ENOENT
        (Kernel.Os.readdir_filtered os "/" ~prog:"ghost");
      check_res "unregistered walk" Kernel.Errno.ENOENT
        (Kernel.Os.pushdown_walk os ~prog:"ghost" ~root:1 ~key:0L);
      check_res "unregistered get" Kernel.Errno.ENOENT
        (Kernel.Os.pushdown_get os ~prog:"ghost" ~key:0L);
      let r = reg machine in
      let cap = Kernel.Pushdown.grant r ~client:"t" in
      Result.get_ok
        (Kernel.Pushdown.register r ~cap ~name:"flt"
           (Kernel.Pushdown.Dir_filter { contains = "x" }));
      check_res "filter is not a walk" Kernel.Errno.EINVAL
        (Kernel.Os.pushdown_walk os ~prog:"flt" ~root:1 ~key:0L);
      register_walk machine ~name:"wlk";
      check_res "walk is not a filter" Kernel.Errno.EINVAL
        (Kernel.Os.readdir_filtered os "/" ~prog:"wlk"))

(* A runaway program aborts with ELOOP, bumps the abort counters, and
   leaves the hosting fiber healthy: the very next walk succeeds. *)
let test_budget_abort () =
  with_xv6 (fun machine os _vfs _h ->
      let ix = build os ~nkeys:4 ~seed:5 in
      (* depth-3 walk costs depth+1 = 4 block reads; budget 3 aborts on
         the value read *)
      register_walk machine ~name:"starved" ~budget:3;
      register_walk machine ~name:"fed";
      let key = ix.Workloads.Pushdown_bench.ix_keys.(0) in
      let root = ix.Workloads.Pushdown_bench.ix_root_dev in
      check_res "budget exhausted" Kernel.Errno.ELOOP
        (Kernel.Os.pushdown_walk os ~prog:"starved" ~root ~key);
      let aborts =
        List.filter_map
          (fun (name, _, _, _, _, aborts) ->
            if name = "starved" then Some aborts else None)
          (Kernel.Pushdown.table (reg machine))
      in
      Alcotest.(check (list int)) "abort recorded" [ 1 ] aborts;
      Alcotest.(check int64)
        "machine-wide abort counter" 1L
        (Sim.Stats.Counter.get
           (Kernel.Machine.counter machine "pushdown_aborts"));
      (* the completion path is not wedged and holds no buffers: a
         fresh walk, a sync and a reread all still work *)
      let v = ok (Kernel.Os.pushdown_walk os ~prog:"fed" ~root ~key) in
      Alcotest.(check int64) "post-abort walk correct" key
        (Bytes.get_int64_le v 0);
      ok (Kernel.Os.sync os))

(* ------------------------------------------------------------------ *)
(* Crossing accounting: resubmitted reads are NOT caller crossings.    *)

let crossings = Workloads.Pushdown_bench.crossings

let check_walk_crossings machine os =
  let ix = build os ~nkeys:8 ~seed:9 in
  register_walk machine ~name:"wlk";
  let key = ix.Workloads.Pushdown_bench.ix_keys.(0) in
  (* warm every block so the plain chase is pure crossings *)
  ignore
    (Workloads.Pushdown_bench.plain_lookup os ix ~fanout_bits ~depth key);
  let c0 = crossings machine in
  let v1 = Workloads.Pushdown_bench.plain_lookup os ix ~fanout_bits ~depth key in
  let c1 = crossings machine in
  Alcotest.(check int64)
    "plain chase costs depth+1 crossings"
    (Int64.of_int (depth + 1))
    (Int64.sub c1 c0);
  let r0 = Sim.Stats.Counter.get
      (Kernel.Machine.counter machine "pushdown_resubmits") in
  let v2 =
    ok
      (Kernel.Os.pushdown_walk os ~prog:"wlk"
         ~root:ix.Workloads.Pushdown_bench.ix_root_dev ~key)
  in
  let c2 = crossings machine in
  Alcotest.(check int64) "pushdown walk costs exactly 1 crossing" 1L
    (Int64.sub c2 c1);
  Alcotest.(check int64)
    "follow-on reads counted as resubmits"
    (Int64.of_int depth)
    (Int64.sub
       (Sim.Stats.Counter.get
          (Kernel.Machine.counter machine "pushdown_resubmits"))
       r0);
  Alcotest.(check bytes) "same value both ways" v1 v2;
  ok (Kernel.Os.close os ix.Workloads.Pushdown_bench.ix_fd)

let test_crossings_bento () =
  with_xv6 (fun machine os _vfs _h -> check_walk_crossings machine os)

let test_crossings_fuse () =
  with_fuse (fun machine os _ -> check_walk_crossings machine os)

(* ------------------------------------------------------------------ *)
(* Seeded equivalence: pushdown ≡ the plain multi-call path.           *)

let row ((d : Kernel.Vfs.dirent), (st : Kernel.Vfs.stat)) =
  (d.d_name, d.d_ino, st.st_ino, st.st_size)

(* [requests], when given, counts the wire requests of a FUSE mount: the
   pushed-down scan must cost exactly one, whatever the entry count. *)
let check_filter_equivalence ?requests machine os seed =
      let rng = Sim.Rng.create seed in
      ok (Kernel.Os.mkdir os "/d");
      let pat = "log" in
      for i = 0 to 39 do
        let name =
          if Sim.Rng.int rng 3 = 0 then Printf.sprintf "a%d-log-%d" i seed
          else Printf.sprintf "a%d-%d" i seed
        in
        let fd =
          ok (Kernel.Os.open_ os ("/d/" ^ name) Kernel.Os.(creat wronly))
        in
        ok (Kernel.Os.pwrite os fd ~pos:0 (payload ~seed:i (1 + Sim.Rng.int rng 4096)))
        |> ignore;
        ok (Kernel.Os.close os fd)
      done;
      let r = reg machine in
      let cap = Kernel.Pushdown.grant r ~client:"t" in
      Result.get_ok
        (Kernel.Pushdown.register r ~cap ~name:"flt"
           (Kernel.Pushdown.Dir_filter { contains = pat }));
      let plain =
        ok (Kernel.Os.readdir os "/d")
        |> List.filter_map (fun (d : Kernel.Vfs.dirent) ->
               if Kernel.Pushdown.matches d.d_name ~contains:pat then
                 Some (row (d, ok (Kernel.Os.stat os ("/d/" ^ d.d_name))))
               else None)
        |> List.sort compare
      in
      let sent = Option.value requests ~default:(fun () -> 0) in
      let before = sent () in
      let pushed =
        ok (Kernel.Os.readdir_filtered os "/d" ~prog:"flt")
        |> List.map row |> List.sort compare
      in
      (* Resolving "/d" costs two requests (GETATTR of the root, then of
         /d); the whole scan of its 40 entries costs one more. *)
      if requests <> None then
        Alcotest.(check int) "requests per filtered scan" 3 (sent () - before);
      Alcotest.(check bool) "some entries survive" true (plain <> []);
      Alcotest.(check int)
        "same number of rows" (List.length plain) (List.length pushed);
      List.iter2
        (fun (n1, i1, si1, sz1) (n2, i2, si2, sz2) ->
          Alcotest.(check string) "name" n1 n2;
          Alcotest.(check int) "dirent ino" i1 i2;
          Alcotest.(check int) "stat ino" si1 si2;
          Alcotest.(check int) "size" sz1 sz2)
        plain pushed

let test_filter_equiv_bento () =
  with_seed (fun seed ->
      with_xv6 (fun machine os _vfs _h ->
          check_filter_equivalence machine os seed))

let test_filter_equiv_fuse () =
  with_seed (fun seed ->
      with_fuse (fun machine os h ->
          check_filter_equivalence
            ~requests:(fun () -> fuse_requests h)
            machine os seed))

let check_walk_equivalence seed =
  with_xv6 (fun machine os _vfs _h ->
      let rng = Sim.Rng.create seed in
          let nkeys = 8 + Sim.Rng.int rng 24 in
          let ix = build os ~nkeys ~seed in
          register_walk machine ~name:"wlk";
          let r = reg machine in
          let cap = Kernel.Pushdown.grant r ~client:"t" in
          Result.get_ok
            (Kernel.Pushdown.register r ~cap ~name:"kv"
               (Kernel.Pushdown.Kv_get
                  {
                    fanout_bits;
                    depth;
                    root = ix.Workloads.Pushdown_bench.ix_root_dev;
                  }));
          let root = ix.Workloads.Pushdown_bench.ix_root_dev in
          let present = Hashtbl.create 64 in
          Array.iter
            (fun k -> Hashtbl.replace present k ())
            ix.Workloads.Pushdown_bench.ix_keys;
          (* every stored key: walk = plain chase = bound-root get *)
          Array.iter
            (fun key ->
              let plain =
                Workloads.Pushdown_bench.plain_lookup os ix ~fanout_bits
                  ~depth key
              in
              let walked =
                ok (Kernel.Os.pushdown_walk os ~prog:"wlk" ~root ~key)
              in
              let got = ok (Kernel.Os.pushdown_get os ~prog:"kv" ~key) in
              Alcotest.(check bytes) "walk = plain" plain walked;
              Alcotest.(check bytes) "get = plain" plain got)
            ix.Workloads.Pushdown_bench.ix_keys;
          (* random probes: both paths agree on hits AND holes *)
          let keyspace = 1 lsl (fanout_bits * depth) in
          for _ = 1 to 64 do
            let key = Int64.of_int (Sim.Rng.int rng keyspace) in
            if Hashtbl.mem present key then
              Alcotest.(check bytes)
                "hit agrees"
                (Workloads.Pushdown_bench.plain_lookup os ix ~fanout_bits
                   ~depth key)
                (ok (Kernel.Os.pushdown_walk os ~prog:"wlk" ~root ~key))
            else begin
              check_res "hole is ENOENT (walk)" Kernel.Errno.ENOENT
                (Kernel.Os.pushdown_walk os ~prog:"wlk" ~root ~key);
              check_res "hole is ENOENT (get)" Kernel.Errno.ENOENT
                (Kernel.Os.pushdown_get os ~prog:"kv" ~key)
            end
          done;
          ok (Kernel.Os.close os ix.Workloads.Pushdown_bench.ix_fd))

let test_walk_equivalence () = with_seed check_walk_equivalence

(* The qcheck form of the same properties: fresh machines over generated
   seeds, shrinking to the smallest failing seed. The Alcotest versions
   above keep the BENTO_SEED reproduction knob. *)
let prop_equivalence =
  QCheck.Test.make ~count:6 ~name:"pushdown ≡ plain over random trees/keys"
    QCheck.(make Gen.(int_range 0 99_999))
    (fun seed ->
      with_xv6 (fun machine os _vfs _h ->
          check_filter_equivalence machine os seed);
      check_walk_equivalence seed;
      true)

let suite =
  [
    Alcotest.test_case "capability gate" `Quick test_capability;
    Alcotest.test_case "program validation" `Quick test_validation;
    Alcotest.test_case "unregistered / wrong kind" `Quick
      test_unregistered_and_wrong_kind;
    Alcotest.test_case "budget abort leaves fiber healthy" `Quick
      test_budget_abort;
    Alcotest.test_case "walk crossings (bento)" `Quick test_crossings_bento;
    Alcotest.test_case "walk crossings (fuse)" `Quick test_crossings_fuse;
    Alcotest.test_case "filter equivalence (bento)" `Quick
      test_filter_equiv_bento;
    Alcotest.test_case "filter equivalence (fuse)" `Quick
      test_filter_equiv_fuse;
    Alcotest.test_case "walk/get equivalence" `Quick test_walk_equivalence;
    QCheck_alcotest.to_alcotest prop_equivalence;
  ]
