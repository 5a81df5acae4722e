(** Tests of the NVMe device model: timing, durability, crash semantics. *)

let tc = Alcotest.test_case

let with_dev ?config f =
  let e = Sim.Engine.create () in
  let d = Device.Ssd.create ?config ~nblocks:4096 ~block_size:4096 e in
  ignore (Sim.Engine.spawn e (fun () -> f e d));
  Sim.Engine.run e

let block c = Bytes.make 4096 c

let test_write_read_roundtrip () =
  with_dev (fun _e d ->
      Device.Ssd.write d 7 (block 'a');
      let got = Device.Ssd.read d 7 in
      Alcotest.(check bytes) "roundtrip" (block 'a') got;
      Alcotest.(check bytes) "unwritten reads zero" (block '\000')
        (Device.Ssd.read d 8))

let test_contig_cheaper_than_scattered () =
  let time_of f =
    let e = Sim.Engine.create () in
    let d = Device.Ssd.create ~nblocks:4096 ~block_size:4096 e in
    ignore (Sim.Engine.spawn e (fun () -> f d));
    Sim.Engine.run e;
    Sim.Engine.now e
  in
  let bufs = Array.init 64 (fun _ -> block 'x') in
  let contig = time_of (fun d -> Device.Ssd.write_contig d ~start:0 bufs) in
  let scattered =
    time_of (fun d -> Array.iteri (fun i b -> Device.Ssd.write d (i * 2) b) bufs)
  in
  Alcotest.(check bool)
    (Printf.sprintf "batched (%Ld) << scattered (%Ld)" contig scattered)
    true
    (Int64.compare (Int64.mul contig 4L) scattered < 0)

let test_flush_durability_and_crash () =
  with_dev (fun _e d ->
      Device.Ssd.write d 1 (block 'd');
      Device.Ssd.flush d;
      Device.Ssd.write d 2 (block 'v');
      Alcotest.(check int) "one dirty block" 1 (Device.Ssd.dirty_blocks d);
      Device.Ssd.crash d;
      Alcotest.(check bytes) "flushed survives" (block 'd') (Device.Ssd.read d 1);
      Alcotest.(check bytes) "unflushed lost" (block '\000') (Device.Ssd.read d 2))

let test_crash_partial_survival () =
  Helpers.with_seed ~default:5 @@ fun seed ->
  with_dev (fun _e d ->
      for i = 0 to 99 do
        Device.Ssd.write d i (block 'p')
      done;
      let rng = Sim.Rng.create seed in
      Device.Ssd.crash ~survive:0.5 ~rng d;
      let survivors = ref 0 in
      for i = 0 to 99 do
        if Bytes.equal (Device.Ssd.read d i) (block 'p') then incr survivors
      done;
      Alcotest.(check bool)
        (Printf.sprintf "some but not all survive (%d)" !survivors)
        true
        (!survivors > 10 && !survivors < 90))

(* Boundary cases of the survival probability: survive:0.0 must behave like a
   hard power cut (only flushed data remains), survive:1.0 like a clean
   shutdown (everything written remains), and in both cases the pre-crash
   [crash_view] must predict exactly what a post-crash read returns for
   survive:0.0. *)
let test_crash_survive_bounds () =
  Helpers.with_seed ~default:17 @@ fun seed ->
  (* survive:0.0 — nothing unflushed persists; crash_view agrees *)
  with_dev (fun _e d ->
      Device.Ssd.write d 0 (block 'F');
      Device.Ssd.write d 1 (block 'F');
      Device.Ssd.flush d;
      for i = 2 to 19 do
        Device.Ssd.write d i (block 'U')
      done;
      let view = Device.Ssd.crash_view d in
      Device.Ssd.crash ~survive:0.0 ~rng:(Sim.Rng.create seed) d;
      for i = 0 to 19 do
        let got = Device.Ssd.read d i in
        let expect = if i < 2 then block 'F' else block '\000' in
        Alcotest.(check bytes) (Printf.sprintf "survive=0 block %d" i) expect got;
        let predicted =
          match view.(i) with Some b -> b | None -> block '\000'
        in
        Alcotest.(check bytes)
          (Printf.sprintf "crash_view predicts block %d" i)
          predicted got
      done);
  (* survive:1.0 — every write persists even without a flush *)
  with_dev (fun _e d ->
      for i = 0 to 19 do
        Device.Ssd.write d i (block 'W')
      done;
      Device.Ssd.crash ~survive:1.0 ~rng:(Sim.Rng.create seed) d;
      for i = 0 to 19 do
        Alcotest.(check bytes)
          (Printf.sprintf "survive=1 block %d" i)
          (block 'W') (Device.Ssd.read d i)
      done)

let test_flush_cost_scales_with_dirty () =
  let flush_time ndirty =
    let e = Sim.Engine.create () in
    let d = Device.Ssd.create ~nblocks:8192 ~block_size:4096 e in
    ignore
      (Sim.Engine.spawn e (fun () ->
           for i = 0 to ndirty - 1 do
             Device.Ssd.write d i (block 'f')
           done;
           let t0 = Sim.Engine.now e in
           Device.Ssd.flush d;
           let dt = Int64.sub (Sim.Engine.now e) t0 in
           if Int64.compare dt 0L <= 0 then failwith "flush took no time";
           (* stash in block 0's first byte? simpler: assert relative below *)
           ignore dt));
    Sim.Engine.run e;
    Sim.Engine.now e
  in
  (* total times include the writes; compare flush-heavy runs *)
  let t_small = flush_time 8 in
  let t_big = flush_time 2048 in
  Alcotest.(check bool) "more dirty data, costlier flush" true
    (Int64.compare t_big t_small > 0)

let test_out_of_range () =
  with_dev (fun _e d ->
      (match Device.Ssd.read d 4096 with
      | exception Device.Ssd.Out_of_range _ -> ()
      | _ -> Alcotest.fail "read out of range accepted");
      match Device.Ssd.write d (-1) (block 'x') with
      | exception Device.Ssd.Out_of_range _ -> ()
      | _ -> Alcotest.fail "write out of range accepted")

(* [Offline.view] is [Offline.read] / [stable_read] without the copy: same
   bytes for stable, volatile and never-written blocks. *)
let test_offline_view_agrees () =
  with_dev (fun _e d ->
      Device.Ssd.write d 1 (block 's');
      Device.Ssd.write d 2 (block 'o');
      Device.Ssd.flush d;
      Device.Ssd.write d 2 (block 'n');
      Device.Ssd.write d 3 (block 'v');
      let module O = Device.Ssd.Offline in
      List.iter
        (fun blk ->
          let name what = Printf.sprintf "block %d: %s" blk what in
          Alcotest.(check bytes) (name "view = read") (O.read d blk)
            (O.view d blk);
          Alcotest.(check bytes)
            (name "view ~stable = stable_read")
            (O.stable_read d blk) (O.view ~stable:true d blk))
        [ 1; 2; 3; 4 ];
      Alcotest.(check bytes) "volatile wins" (block 'n') (O.view d 2);
      Alcotest.(check bytes) "stable copy under it" (block 'o')
        (O.view ~stable:true d 2);
      Alcotest.(check bytes) "unflushed block is zero when stable"
        (block '\000') (O.view ~stable:true d 3);
      Alcotest.(check bytes) "never written reads zero" (block '\000')
        (O.view d 4))

(* Payloads are replace-only, so bytes handed out by [view] stay as they
   were whatever the device does next. *)
let test_offline_view_is_stable () =
  with_dev (fun _e d ->
      let module O = Device.Ssd.Offline in
      Device.Ssd.write d 1 (block 'a');
      Device.Ssd.flush d;
      Device.Ssd.write d 1 (block 'b');
      let durable = O.view ~stable:true d 1
      and current = O.view d 1
      and unwritten = O.view d 2 in
      let unchanged after =
        Alcotest.(check bytes) ("durable after " ^ after) (block 'a') durable;
        Alcotest.(check bytes) ("current after " ^ after) (block 'b') current;
        Alcotest.(check bytes) ("unwritten after " ^ after) (block '\000')
          unwritten
      in
      Device.Ssd.write d 1 (block 'c');
      Device.Ssd.write d 2 (block 'c');
      unchanged "write";
      Device.Ssd.flush d;
      unchanged "flush";
      Device.Ssd.write d 1 (block 'd');
      Device.Ssd.crash ~survive:1.0 ~rng:(Sim.Rng.create 1) d;
      unchanged "crash";
      O.write d 1 (block 'e');
      O.write d 2 (block 'e');
      unchanged "Offline.write";
      Alcotest.(check bytes) "later view sees the new bytes" (block 'e')
        (O.view d 1))

let test_offline_view_out_of_range () =
  with_dev (fun _e d ->
      List.iter
        (fun blk ->
          match Device.Ssd.Offline.view d blk with
          | exception Device.Ssd.Out_of_range b ->
              Alcotest.(check int) "names the block" blk b
          | _ -> Alcotest.failf "view of block %d accepted" blk)
        [ -1; 4096 ])

let test_failed_device () =
  with_dev (fun _e d ->
      Device.Ssd.fail d;
      match Device.Ssd.read d 0 with
      | exception Device.Ssd.Device_failed -> ()
      | _ -> Alcotest.fail "failed device still serving")

let test_channels_parallelism () =
  (* 8 concurrent reads on 8 channels should take ~1 read time, not 8 *)
  let e = Sim.Engine.create () in
  let d = Device.Ssd.create ~nblocks:4096 ~block_size:4096 e in
  for i = 0 to 7 do
    ignore (Sim.Engine.spawn e (fun () -> ignore (Device.Ssd.read d i)))
  done;
  Sim.Engine.run e;
  let one = Int64.add (Device.Ssd.default_config.Device.Ssd.read_base) 2_000L in
  Alcotest.(check bool)
    (Printf.sprintf "parallel reads: %Ldns" (Sim.Engine.now e))
    true
    (Int64.compare (Sim.Engine.now e) one < 0)

let test_drain_overflow_fifo () =
  (* A tiny volatile cache forces the drain path: victims must become
     durable in FIFO *insertion* order, and rewriting a cached block must
     keep its original queue position (not refresh it). *)
  let config = { Device.Ssd.default_config with cache_blocks = 4 } in
  with_dev ~config (fun _e d ->
      Device.Ssd.write d 10 (block 'a');
      Device.Ssd.write d 20 (block 'b');
      Device.Ssd.write d 30 (block 'c');
      Device.Ssd.write d 40 (block 'd');
      (* rewrite the oldest entry; it stays at the head of the queue *)
      Device.Ssd.write d 10 (block 'A');
      Alcotest.(check int) "cache at capacity" 4 (Device.Ssd.dirty_blocks d);
      let stable blk =
        match (Device.Ssd.crash_view d).(blk) with
        | Some data -> Some (Bytes.get data 0)
        | None -> None
      in
      Alcotest.(check (option char)) "nothing durable yet" None (stable 10);
      (* one more block overflows by one: the oldest insertion drains *)
      Device.Ssd.write d 50 (block 'e');
      Alcotest.(check int) "still at capacity" 4 (Device.Ssd.dirty_blocks d);
      Alcotest.(check (option char)) "oldest drained, rewritten payload"
        (Some 'A') (stable 10);
      Alcotest.(check (option char)) "second-oldest still volatile" None
        (stable 20);
      (* two more: 20 then 30 drain, in insertion order *)
      Device.Ssd.write d 60 (block 'f');
      Device.Ssd.write d 70 (block 'g');
      Alcotest.(check (option char)) "then the second" (Some 'b') (stable 20);
      Alcotest.(check (option char)) "then the third" (Some 'c') (stable 30);
      Alcotest.(check (option char)) "newer stays volatile" None (stable 40);
      (* a crash keeps exactly the drained prefix *)
      Device.Ssd.crash d;
      Alcotest.(check bytes) "drained survives" (block 'A')
        (Device.Ssd.read d 10);
      Alcotest.(check bytes) "undrained lost" (block '\000')
        (Device.Ssd.read d 40))

let suite =
  [
    tc "write/read roundtrip" `Quick test_write_read_roundtrip;
    tc "overflow drain is FIFO" `Quick test_drain_overflow_fifo;
    tc "contiguous command batching" `Quick test_contig_cheaper_than_scattered;
    tc "flush durability + crash" `Quick test_flush_durability_and_crash;
    tc "partial survival crash" `Quick test_crash_partial_survival;
    tc "crash survive bounds + crash_view" `Quick test_crash_survive_bounds;
    tc "flush cost scales" `Quick test_flush_cost_scales_with_dirty;
    tc "out of range" `Quick test_out_of_range;
    tc "offline view agrees with read" `Quick test_offline_view_agrees;
    tc "offline view bytes never change" `Quick test_offline_view_is_stable;
    tc "offline view out of range" `Quick test_offline_view_out_of_range;
    tc "failed device" `Quick test_failed_device;
    tc "channel parallelism" `Quick test_channels_parallelism;
  ]
