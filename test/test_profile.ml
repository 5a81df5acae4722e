(** Tests of the virtual-time profiler: frame semantics on a bare engine,
    and the conservation law — every virtual nanosecond of a run is
    attributed to exactly one folded stack, so the per-layer self times
    sum to the elapsed window — on all four file-system stacks. Also
    checks the paper's headline explanatory counter: FUSE crossings equal
    the transport's request + reply message count. *)

let tc = Alcotest.test_case
let ok = Kernel.Errno.ok_exn

(* ------------------------------------------------------------------ *)
(* Frame semantics on a bare engine.                                   *)

let test_frames_basic () =
  let e = Sim.Engine.create () in
  let p = Sim.Profile.create e in
  Sim.Profile.enable p;
  ignore
    (Sim.Engine.spawn e (fun () ->
         Sim.Profile.with_frame p "vfs" (fun () ->
             Sim.Engine.sleep 100L;
             (* re-entering the top layer must not stack "vfs;vfs" *)
             Sim.Profile.with_frame p "vfs" (fun () -> Sim.Engine.sleep 50L);
             Sim.Profile.with_frame p "bcache" (fun () ->
                 Sim.Engine.sleep 25L))));
  Sim.Engine.run e;
  Alcotest.(check (list (pair string int64)))
    "folded stacks"
    [ ("vfs", 150L); ("vfs;bcache", 25L) ]
    (Sim.Profile.folded p);
  Alcotest.(check int64) "attributed = elapsed" (Sim.Profile.elapsed p)
    (Sim.Profile.attributed p);
  let summary = Sim.Profile.summary p in
  let find l =
    match List.find_opt (fun lt -> lt.Sim.Profile.layer = l) summary with
    | Some lt -> lt
    | None -> Alcotest.failf "layer %s missing from summary" l
  in
  Alcotest.(check int64) "vfs self" 150L (find "vfs").Sim.Profile.self_ns;
  Alcotest.(check int64) "vfs total" 175L (find "vfs").Sim.Profile.total_ns;
  Alcotest.(check int64) "bcache self" 25L (find "bcache").Sim.Profile.self_ns

let test_idle_attribution () =
  (* time advanced with no runnable fiber (run_until past the last event)
     and time in a frameless fiber both land in "idle" *)
  let e = Sim.Engine.create () in
  let p = Sim.Profile.create e in
  Sim.Profile.enable p;
  ignore (Sim.Engine.spawn e (fun () -> Sim.Engine.sleep 40L));
  Sim.Engine.run_until e 100L;
  Alcotest.(check (list (pair string int64)))
    "all idle"
    [ ("idle", 100L) ]
    (Sim.Profile.folded p);
  Alcotest.(check int64) "conserved" (Sim.Profile.elapsed p)
    (Sim.Profile.attributed p)

let test_disabled_is_free () =
  let e = Sim.Engine.create () in
  let p = Sim.Profile.create e in
  ignore
    (Sim.Engine.spawn e (fun () ->
         Sim.Profile.with_frame p "vfs" (fun () -> Sim.Engine.sleep 10L)));
  Sim.Engine.run e;
  Alcotest.(check (list (pair string int64))) "nothing recorded" []
    (Sim.Profile.folded p)

let test_lock_wait_attribution () =
  (* Contended-lock time is reported per "<layer>/<lock>", keyed by the
     layer the *blocked* fiber was in, and stays out of the self-time
     attribution — blocked time overlaps other fibers' running time, so
     counting it would break the conservation law. *)
  let e = Sim.Engine.create () in
  let p = Sim.Profile.create e in
  Sim.Profile.enable p;
  let m = Sim.Sync.Mutex.create ~name:"biglock" () in
  ignore
    (Sim.Engine.spawn ~name:"holder" e (fun () ->
         Sim.Profile.with_frame p "log" (fun () ->
             Sim.Sync.Mutex.with_lock m (fun () -> Sim.Engine.sleep 100L))));
  ignore
    (Sim.Engine.spawn ~name:"waiter" e (fun () ->
         Sim.Profile.with_frame p "fs" (fun () ->
             Sim.Sync.Mutex.with_lock m (fun () -> Sim.Engine.sleep 10L))));
  Sim.Engine.run e;
  Alcotest.(check (list (pair string int64)))
    "blocked time keyed by the blocked fiber's layer"
    [ ("fs/biglock", 100L) ]
    (Sim.Profile.lock_waits p);
  Alcotest.(check int64) "waits stay out of attributed time"
    (Sim.Profile.elapsed p) (Sim.Profile.attributed p)

(* ------------------------------------------------------------------ *)
(* Conservation on the real stacks.                                    *)

(* A small mixed workload on [kind] with the profiler enabled for the
   whole machine run (mkfs, mount, ops, unmount). *)
let run_profiled kind =
  let machine =
    Kernel.Machine.create ~disk_blocks:65536 ~block_size:4096 ()
  in
  let p = Kernel.Machine.profile machine in
  Sim.Profile.enable p;
  Kernel.Machine.spawn machine (fun () ->
      Stacks.mkfs kind machine;
      let os, unmount = Stacks.mount ~background:false kind machine in
      ok (Kernel.Os.mkdir os "/d");
      for i = 0 to 19 do
        let path = Printf.sprintf "/d/f%d" i in
        ok (Kernel.Os.write_file os path (Bytes.make 8192 'p'));
        ignore (ok (Kernel.Os.read_file os path))
      done;
      ok (Kernel.Os.sync os);
      unmount ());
  Kernel.Machine.run machine;
  Sim.Profile.disable p;
  (machine, p)

let layer_names p =
  List.map (fun lt -> lt.Sim.Profile.layer) (Sim.Profile.summary p)

let check_conservation kind =
  let _machine, p = run_profiled kind in
  let elapsed = Sim.Profile.elapsed p in
  if Int64.compare elapsed 0L <= 0 then
    Alcotest.failf "%s: run consumed no virtual time" (Stacks.name kind);
  Alcotest.(check int64)
    (Stacks.name kind ^ ": attributed = elapsed")
    elapsed (Sim.Profile.attributed p);
  let sum_self =
    List.fold_left
      (fun acc lt -> Int64.add acc lt.Sim.Profile.self_ns)
      0L (Sim.Profile.summary p)
  in
  Alcotest.(check int64)
    (Stacks.name kind ^ ": summary self sums to elapsed")
    elapsed sum_self;
  let sum_folded =
    List.fold_left (fun acc (_, ns) -> Int64.add acc ns) 0L
      (Sim.Profile.folded p)
  in
  Alcotest.(check int64)
    (Stacks.name kind ^ ": folded sums to elapsed")
    elapsed sum_folded;
  let layers = layer_names p in
  List.iter
    (fun l ->
      if not (List.mem l layers) then
        Alcotest.failf "%s: expected layer %s in summary (got %s)"
          (Stacks.name kind) l
          (String.concat ", " layers))
    [ "vfs"; "device-io" ]

let test_conservation_xv6 () = check_conservation Stacks.Bento
let test_conservation_ext4 () = check_conservation Stacks.Ext4
let test_conservation_ckernel () = check_conservation Stacks.Ckernel

let test_conservation_fuse () =
  check_conservation Stacks.Fuse;
  let machine, p = run_profiled Stacks.Fuse in
  (* FUSE runs must show transport time, and the machine-wide crossing
     counter must equal the transport's message count *)
  if not (List.mem "fuse-transport" (layer_names p)) then
    Alcotest.fail "fuse run has no fuse-transport layer";
  let counters = Kernel.Machine.counter_snapshot machine in
  let c name =
    match List.assoc_opt name counters with
    | Some v -> v
    | None -> Alcotest.failf "counter %s missing from snapshot" name
  in
  let crossings = c "machine.fuse_crossings" in
  if Int64.compare crossings 0L <= 0 then
    Alcotest.fail "no FUSE crossings counted";
  Alcotest.(check int64) "crossings = requests + replies"
    (Int64.add (c "fuse.requests") (c "fuse.replies"))
    crossings

let test_non_fuse_has_no_crossings () =
  let machine, _p = run_profiled Stacks.Bento in
  let counters = Kernel.Machine.counter_snapshot machine in
  Alcotest.(check int64) "kernel stack crosses zero times" 0L
    (Option.value ~default:0L
       (List.assoc_opt "machine.fuse_crossings" counters))

let suite =
  [
    tc "frames: dedup, nesting, folded output" `Quick test_frames_basic;
    tc "frames: idle attribution" `Quick test_idle_attribution;
    tc "frames: disabled profiler records nothing" `Quick
      test_disabled_is_free;
    tc "lock-wait attribution" `Quick test_lock_wait_attribution;
    tc "conservation: xv6 (BentoFS)" `Quick test_conservation_xv6;
    tc "conservation: fuse + crossing count" `Quick test_conservation_fuse;
    tc "conservation: ext4 (jbd2)" `Quick test_conservation_ext4;
    tc "conservation: ckernel (C baseline)" `Quick test_conservation_ckernel;
    tc "kernel stacks have zero fuse crossings" `Quick
      test_non_fuse_has_no_crossings;
  ]
