(** Unit tests of the kernel buffer cache: refcounting, LRU eviction,
    pinning, writeback-on-eviction, and invalidation at unmount. *)

open Helpers

let tc = Alcotest.test_case

let with_bc ?(capacity = 8) f =
  in_sim (fun machine -> f machine (Kernel.Bcache.create ~capacity machine))

let test_read_write_roundtrip () =
  with_bc (fun _m bc ->
      let b = Kernel.Bcache.getblk bc 5 in
      Bytes.fill b.Kernel.Bcache.data 0 4096 'r';
      Kernel.Bcache.bwrite bc b;
      Kernel.Bcache.brelse bc b;
      let b = Kernel.Bcache.bread bc 5 in
      Alcotest.(check char) "content" 'r' (Bytes.get b.Kernel.Bcache.data 0);
      Kernel.Bcache.brelse bc b;
      Kernel.Bcache.check_invariants bc)

let test_cache_hit_no_device_read () =
  with_bc (fun machine bc ->
      let dev_reads () =
        Sim.Stats.Counter.get_int
          (Sim.Stats.counter (Device.Ssd.stats (Kernel.Machine.disk machine)) "read_cmds")
      in
      let b = Kernel.Bcache.bread bc 3 in
      Kernel.Bcache.brelse bc b;
      let before = dev_reads () in
      let b = Kernel.Bcache.bread bc 3 in
      Kernel.Bcache.brelse bc b;
      Alcotest.(check int) "second bread is a hit" before (dev_reads ()))

let test_eviction_lru () =
  with_bc ~capacity:4 (fun _m bc ->
      (* fill, then overflow: the least recently released goes *)
      for i = 0 to 3 do
        let b = Kernel.Bcache.bread bc i in
        Kernel.Bcache.brelse bc b
      done;
      (* touch 0 to make 1 the LRU *)
      let b = Kernel.Bcache.bread bc 0 in
      Kernel.Bcache.brelse bc b;
      let b = Kernel.Bcache.bread bc 99 in
      Kernel.Bcache.brelse bc b;
      Alcotest.(check int) "capacity respected" 4 (Kernel.Bcache.cached_blocks bc);
      Kernel.Bcache.check_invariants bc)

let test_referenced_buffers_not_evicted () =
  with_bc ~capacity:4 (fun _m bc ->
      let held = List.init 4 (fun i -> Kernel.Bcache.bread bc i) in
      (* all buffers referenced: the next miss must fail, not corrupt *)
      (match Kernel.Bcache.bread bc 50 with
      | exception Kernel.Bcache.No_buffers -> ()
      | _ -> Alcotest.fail "expected No_buffers");
      List.iter (fun b -> Kernel.Bcache.brelse bc b) held;
      (* now there is room *)
      let b = Kernel.Bcache.bread bc 50 in
      Kernel.Bcache.brelse bc b)

let test_dirty_eviction_writes_back () =
  with_bc ~capacity:4 (fun machine bc ->
      let b = Kernel.Bcache.getblk bc 7 in
      Bytes.fill b.Kernel.Bcache.data 0 4096 'd';
      Kernel.Bcache.mark_dirty b;
      Kernel.Bcache.brelse bc b;
      (* force eviction of block 7 *)
      for i = 100 to 104 do
        let b = Kernel.Bcache.bread bc i in
        Kernel.Bcache.brelse bc b
      done;
      (* contents must have been written back, not lost *)
      let b = Kernel.Bcache.bread bc 7 in
      Alcotest.(check char) "written back on eviction" 'd'
        (Bytes.get b.Kernel.Bcache.data 0);
      Kernel.Bcache.brelse bc b;
      ignore machine)

let test_sleeplock_serialises_holders () =
  with_bc (fun machine bc ->
      let order = ref [] in
      let done_ = Sim.Sync.Semaphore.create 0 in
      for i = 0 to 2 do
        Kernel.Machine.spawn machine (fun () ->
            let b = Kernel.Bcache.bread bc 11 in
            order := i :: !order;
            Sim.Engine.sleep (Sim.Time.us 10);
            Kernel.Bcache.brelse bc b;
            Sim.Sync.Semaphore.release done_)
      done;
      for _ = 0 to 2 do
        Sim.Sync.Semaphore.acquire done_
      done;
      Alcotest.(check int) "all three held it" 3 (List.length !order);
      (* serialised: total time at least 3 x 10us *)
      Alcotest.(check bool) "serialised" true
        (Int64.compare (Kernel.Machine.now machine) (Sim.Time.us 30) >= 0))

let test_brelse_unlocked_rejected () =
  with_bc (fun _m bc ->
      let b = Kernel.Bcache.bread bc 1 in
      Kernel.Bcache.brelse bc b;
      match Kernel.Bcache.brelse bc b with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "double brelse accepted")

let test_lru_exact_order () =
  (* The intrusive free list must evict in exact release order. Establish a
     known order, then force evictions one at a time and probe the block
     that would have been lost if the wrong victim were chosen: a probe hit
     (no disk read) proves the intended victim went instead. *)
  with_bc ~capacity:4 (fun machine bc ->
      let reads () =
        Sim.Stats.Counter.get_int
          (Sim.Stats.counter (Kernel.Bcache.stats bc) "disk_reads")
      in
      let touch blk =
        let b = Kernel.Bcache.bread bc blk in
        Kernel.Bcache.brelse bc b
      in
      List.iter touch [ 0; 1; 2; 3 ];
      (* re-release in a scrambled order: LRU is now 2, then 0, 3, 1 *)
      List.iter touch [ 2; 0; 3; 1 ];
      let expect_hit blk label =
        let before = reads () in
        touch blk;
        Alcotest.(check int) label before (reads ())
      in
      touch 100 (* evicts 2 *);
      Kernel.Bcache.check_invariants bc;
      expect_hit 0 "0 survived the first eviction";
      touch 101 (* evicts 3 *);
      expect_hit 1 "1 survived the second eviction";
      touch 102 (* evicts 100, the oldest after the probes *);
      expect_hit 0 "0 still cached after the third";
      Kernel.Bcache.check_invariants bc;
      (* and the first victim really is gone *)
      let before = reads () in
      touch 2;
      Alcotest.(check int) "2 was evicted first" (before + 1) (reads ());
      ignore machine)

let test_invariants_under_churn () =
  (* Random churn of reads, dirty writes, pinned buffers and evictions;
     the free-list/refcount invariants must hold throughout and dirty
     victims must reach the device. *)
  Helpers.with_seed ~default:11 @@ fun seed ->
  with_bc ~capacity:8 (fun _m bc ->
      let rng = Sim.Rng.create seed in
      let held = ref [] in
      let holding blk =
        (* bread of a block whose sleeplock this fiber already holds would
           self-deadlock; real callers never double-acquire either *)
        List.exists (fun b -> b.Kernel.Bcache.block = blk) !held
      in
      for step = 1 to 300 do
        let blk = Sim.Rng.int rng 32 in
        (match Sim.Rng.int rng 4 with
        | _ when holding blk -> ()
        | 0 ->
            (* pin a buffer for a while *)
            if List.length !held < 6 then
              (match Kernel.Bcache.bread bc blk with
              | b -> held := b :: !held
              | exception Kernel.Bcache.No_buffers -> ())
        | 1 -> (
            match !held with
            | b :: rest ->
                held := rest;
                Kernel.Bcache.brelse bc b
            | [] -> ())
        | 2 -> (
            (* dirty write: stamp the block number so writeback is checkable *)
            match Kernel.Bcache.bread bc blk with
            | b ->
                Bytes.fill b.Kernel.Bcache.data 0 4096
                  (Char.chr (Char.code 'a' + (blk mod 26)));
                Kernel.Bcache.mark_dirty b;
                Kernel.Bcache.brelse bc b
            | exception Kernel.Bcache.No_buffers -> ())
        | _ -> (
            match Kernel.Bcache.bread bc blk with
            | b -> Kernel.Bcache.brelse bc b
            | exception Kernel.Bcache.No_buffers -> ()));
        if step mod 25 = 0 then Kernel.Bcache.check_invariants bc
      done;
      List.iter (fun b -> Kernel.Bcache.brelse bc b) !held;
      Kernel.Bcache.check_invariants bc;
      (* every block that was ever dirtied reads back with its stamp,
         whether it survived in cache or went through dirty eviction *)
      for blk = 0 to 31 do
        let b = Kernel.Bcache.bread bc blk in
        let c = Bytes.get b.Kernel.Bcache.data 0 in
        if c <> '\000' then
          Alcotest.(check char)
            (Printf.sprintf "block %d stamp" blk)
            (Char.chr (Char.code 'a' + (blk mod 26)))
            c;
        Kernel.Bcache.brelse bc b
      done;
      Kernel.Bcache.check_invariants bc)

let test_concurrent_churn () =
  (* Many fibers hammering a small sharded cache: getbuf must pin its
     victim before sleeping on the sleeplock, so a buffer recycled by a
     concurrent eviction is never returned for the wrong block. Regression
     test for the hand-over-hand race: every bread is checked against the
     block it asked for, and stamps written under one fiber must never
     leak into another block. *)
  Helpers.with_seed ~default:23 @@ fun seed ->
  in_sim (fun machine ->
      let bc = Kernel.Bcache.create ~capacity:32 ~shards:4 machine in
      let nfibers = 16 in
      let done_ = Sim.Sync.Semaphore.create 0 in
      let stamp blk = Char.chr (Char.code 'a' + (blk mod 26)) in
      let checked_bread blk =
        match Kernel.Bcache.bread bc blk with
        | b ->
            if b.Kernel.Bcache.block <> blk then
              Alcotest.failf "bread %d returned recycled buffer for block %d"
                blk b.Kernel.Bcache.block;
            Some b
        | exception Kernel.Bcache.No_buffers -> None
      in
      for i = 0 to nfibers - 1 do
        Kernel.Machine.spawn machine (fun () ->
            let rng = Sim.Rng.create (seed + (7919 * i)) in
            for _step = 1 to 200 do
              let blk = Sim.Rng.int rng 128 in
              match Sim.Rng.int rng 3 with
              | 0 -> (
                  (* dirty write: stamp so cross-block leaks are visible *)
                  match checked_bread blk with
                  | Some b ->
                      Bytes.fill b.Kernel.Bcache.data 0 4096 (stamp blk);
                      Kernel.Bcache.mark_dirty b;
                      Kernel.Bcache.brelse bc b
                  | None -> ())
              | 1 -> (
                  (* hold across a sleep so evictions race live holders *)
                  match checked_bread blk with
                  | Some b ->
                      Sim.Engine.sleep
                        (Sim.Time.ns (1 + Sim.Rng.int rng 2000));
                      Kernel.Bcache.brelse bc b
                  | None -> ())
              | _ -> (
                  match checked_bread blk with
                  | Some b ->
                      let c = Bytes.get b.Kernel.Bcache.data 0 in
                      if c <> '\000' && c <> stamp blk then
                        Alcotest.failf "block %d holds foreign stamp %C" blk c;
                      Kernel.Bcache.brelse bc b
                  | None -> ())
            done;
            Sim.Sync.Semaphore.release done_)
      done;
      for _ = 1 to nfibers do
        Sim.Sync.Semaphore.acquire done_
      done;
      Kernel.Bcache.check_invariants bc)

(* ------------------------------------------------------------------ *)
(* Property: the sharded cache is observationally equivalent to the
   single-lock cache. Blocks are partitioned among fibers (fiber i owns
   blk when blk mod nfibers = i), so each block's final content is its
   owner's last write — deterministic regardless of interleaving — and
   must agree between shards:1, shards:8 and a pure replay model. The
   capacity leaves each shard at least as many buffers as fibers, so the
   op scripts never hit No_buffers and replay identically. *)

let equiv_nfibers = 8
let equiv_nblocks = 256
let equiv_steps = 150
let equiv_stamp blk step = Char.chr (33 + (((blk * 7) + step) mod 90))

(* One fiber's op script: the rng draws happen in fiber-sequential code,
   so the script is a pure function of the seed — the concurrent runs and
   the sequential model replay the same draws. *)
let equiv_script ~seed i act =
  let rng = Sim.Rng.create (seed + (31 * i)) in
  for step = 1 to equiv_steps do
    let blk = Sim.Rng.int rng equiv_nblocks in
    let op = Sim.Rng.int rng 3 in
    let hold = if op = 2 then 1 + Sim.Rng.int rng 500 else 0 in
    act ~step ~blk ~op ~hold
  done

let equiv_model ~seed =
  let expected = Array.make equiv_nblocks None in
  for i = 0 to equiv_nfibers - 1 do
    equiv_script ~seed i (fun ~step ~blk ~op ~hold:_ ->
        if op = 0 && blk mod equiv_nfibers = i then
          expected.(blk) <- Some (equiv_stamp blk step))
  done;
  expected

let equiv_run ~seed ~shards =
  let final = Array.make equiv_nblocks '\000' in
  in_sim (fun machine ->
      let bc = Kernel.Bcache.create ~capacity:64 ~shards machine in
      let done_ = Sim.Sync.Semaphore.create 0 in
      for i = 0 to equiv_nfibers - 1 do
        Kernel.Machine.spawn machine (fun () ->
            equiv_script ~seed i (fun ~step ~blk ~op ~hold ->
                let b = Kernel.Bcache.bread bc blk in
                if b.Kernel.Bcache.block <> blk then
                  QCheck.Test.fail_reportf "bread %d returned block %d" blk
                    b.Kernel.Bcache.block;
                (if op = 0 && blk mod equiv_nfibers = i then begin
                   Bytes.fill b.Kernel.Bcache.data 0 4096
                     (equiv_stamp blk step);
                   Kernel.Bcache.mark_dirty b
                 end
                 else if op = 2 then Sim.Engine.sleep (Sim.Time.ns hold));
                Kernel.Bcache.brelse bc b);
            Sim.Sync.Semaphore.release done_)
      done;
      for _ = 1 to equiv_nfibers do
        Sim.Sync.Semaphore.acquire done_
      done;
      Kernel.Bcache.check_invariants bc;
      for blk = 0 to equiv_nblocks - 1 do
        let b = Kernel.Bcache.bread bc blk in
        final.(blk) <- Bytes.get b.Kernel.Bcache.data 0;
        Kernel.Bcache.brelse bc b
      done);
  final

let prop_shard_equivalence =
  QCheck.Test.make ~count:10
    ~name:"sharded bcache == single-lock bcache under concurrent workloads"
    QCheck.(int_bound 1_000_000)
    (fun salt ->
      let seed = Helpers.test_seed 0 + salt in
      let expected = equiv_model ~seed in
      let single = equiv_run ~seed ~shards:1 in
      let sharded = equiv_run ~seed ~shards:8 in
      Array.iteri
        (fun blk c ->
          if c <> sharded.(blk) then
            QCheck.Test.fail_reportf
              "block %d: single-lock %C vs sharded %C (seed %d)" blk c
              sharded.(blk) seed;
          match expected.(blk) with
          | Some e when e <> c ->
              QCheck.Test.fail_reportf "block %d: model %C vs cache %C (seed %d)"
                blk e c seed
          | _ -> ())
        single;
      true)

let misses bc =
  Sim.Stats.Counter.get_int (Sim.Stats.counter (Kernel.Bcache.stats bc) "misses")

let test_invalidate_drops_every_buffer () =
  (* 256 blocks: four shards, all of them populated *)
  with_bc ~capacity:256 (fun _m bc ->
      for blk = 0 to 15 do
        Kernel.Bcache.brelse bc (Kernel.Bcache.bread bc blk)
      done;
      (* the device now differs from the cached copy of block 5 *)
      Kernel.Bcache.raw_write bc 5 (Bytes.make 4096 'n');
      Kernel.Bcache.invalidate bc;
      Alcotest.(check int) "nothing cached" 0 (Kernel.Bcache.cached_blocks bc);
      Kernel.Bcache.check_invariants bc;
      let before = misses bc in
      let b = Kernel.Bcache.bread bc 5 in
      Alcotest.(check int) "next bread misses" (before + 1) (misses bc);
      Alcotest.(check char) "device bytes" 'n' (Bytes.get b.Kernel.Bcache.data 0);
      Kernel.Bcache.brelse bc b;
      Kernel.Bcache.check_invariants bc)

(* A buffer still in use at unmount is a bug: refuse, and keep the cache. *)
let test_invalidate_refuses_busy_buffers () =
  with_bc (fun _m bc ->
      let refused what =
        let cached = Kernel.Bcache.cached_blocks bc in
        (match Kernel.Bcache.invalidate bc with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.failf "invalidate accepted a %s buffer" what);
        Alcotest.(check int) (what ^ ": cache kept") cached
          (Kernel.Bcache.cached_blocks bc);
        Kernel.Bcache.check_invariants bc
      in
      let held = Kernel.Bcache.bread bc 1 in
      refused "held";
      Kernel.Bcache.bpin bc held;
      Kernel.Bcache.brelse bc held;
      refused "pinned";
      Kernel.Bcache.bunpin bc held;
      let dirty = Kernel.Bcache.getblk bc 2 in
      Kernel.Bcache.mark_dirty dirty;
      Kernel.Bcache.brelse bc dirty;
      refused "dirty";
      let b = Kernel.Bcache.bread bc 2 in
      Kernel.Bcache.bwrite bc b;
      Kernel.Bcache.brelse bc b;
      Kernel.Bcache.invalidate bc;
      Alcotest.(check int) "emptied once idle" 0 (Kernel.Bcache.cached_blocks bc))

let suite =
  [
    tc "roundtrip" `Quick test_read_write_roundtrip;
    tc "lru exact eviction order" `Quick test_lru_exact_order;
    tc "invariants under churn" `Quick test_invariants_under_churn;
    tc "cache hit" `Quick test_cache_hit_no_device_read;
    tc "lru eviction" `Quick test_eviction_lru;
    tc "no eviction of referenced" `Quick test_referenced_buffers_not_evicted;
    tc "dirty eviction writes back" `Quick test_dirty_eviction_writes_back;
    tc "sleeplock serialises" `Quick test_sleeplock_serialises_holders;
    tc "double brelse rejected" `Quick test_brelse_unlocked_rejected;
    tc "concurrent churn across shards" `Quick test_concurrent_churn;
    tc "invalidate drops every buffer" `Quick
      test_invalidate_drops_every_buffer;
    tc "invalidate refuses held, pinned, dirty" `Quick
      test_invalidate_refuses_busy_buffers;
    QCheck_alcotest.to_alcotest prop_shard_equivalence;
  ]
