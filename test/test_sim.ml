(** Tests of the discrete-event engine and synchronisation primitives. *)

let tc = Alcotest.test_case

let test_virtual_time () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore
    (Sim.Engine.spawn ~name:"a" e (fun () ->
         Sim.Engine.sleep 100L;
         log := ("a", Sim.Engine.now e) :: !log));
  ignore
    (Sim.Engine.spawn ~name:"b" e (fun () ->
         Sim.Engine.sleep 50L;
         log := ("b", Sim.Engine.now e) :: !log));
  Sim.Engine.run e;
  Alcotest.(check (list (pair string int64)))
    "events in time order"
    [ ("a", 100L); ("b", 50L) ]
    !log

let test_sleep_zero_is_yield () =
  let e = Sim.Engine.create () in
  let order = ref [] in
  ignore
    (Sim.Engine.spawn e (fun () ->
         order := 1 :: !order;
         Sim.Engine.yield ();
         order := 3 :: !order));
  ignore (Sim.Engine.spawn e (fun () -> order := 2 :: !order));
  Sim.Engine.run e;
  Alcotest.(check (list int)) "yield interleaves" [ 3; 2; 1 ] !order

let test_determinism () =
  Helpers.with_seed ~default:11 @@ fun seed ->
  let run () =
    let e = Sim.Engine.create () in
    let rng = Sim.Rng.create seed in
    let trace = Buffer.create 64 in
    for i = 0 to 9 do
      ignore
        (Sim.Engine.spawn e (fun () ->
             Sim.Engine.sleep (Int64.of_int (Sim.Rng.int rng 1000));
             Buffer.add_string trace (Printf.sprintf "%d@%Ld;" i (Sim.Engine.now e))))
    done;
    Sim.Engine.run e;
    Buffer.contents trace
  in
  Alcotest.(check string) "identical traces" (run ()) (run ())

let test_fiber_failure_propagates () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.spawn ~name:"boom" e (fun () -> failwith "boom"));
  match Sim.Engine.run e with
  | () -> Alcotest.fail "expected Fiber_failure"
  | exception Sim.Engine.Fiber_failure ("boom", Failure _) -> ()
  | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)

let test_deadlock_detected () =
  let e = Sim.Engine.create () in
  let m = Sim.Sync.Mutex.create () in
  ignore
    (Sim.Engine.spawn e (fun () ->
         Sim.Sync.Mutex.lock m;
         Sim.Sync.Mutex.lock m (* self-deadlock *)));
  match Sim.Engine.run e with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Sim.Engine.Deadlock _ -> ()

(* A deadlock report lists the blocked fibers of its own engine only:
   fids restart at 0 in every engine, and a fiber that dies blocked in one
   run must not haunt the report of the next. *)
let test_deadlock_report_per_engine () =
  let deadlock ~extra tag =
    let e = Sim.Engine.create () in
    let m = Sim.Sync.Mutex.create ~name:tag () in
    if extra then ignore (Sim.Engine.spawn ~name:"extra" e (fun () -> ()));
    ignore
      (Sim.Engine.spawn ~name:("holder-" ^ tag) e (fun () ->
           Sim.Sync.Mutex.lock m));
    ignore
      (Sim.Engine.spawn ~name:("waiter-" ^ tag) e (fun () ->
           Sim.Sync.Mutex.lock m));
    match Sim.Engine.run e with
    | () -> Alcotest.fail "expected Deadlock"
    | exception Sim.Engine.Deadlock msg -> msg
  in
  Alcotest.(check string) "engine a"
    "1 fiber(s) still blocked at t=0ns [waiter-a#1 waiting on mutex a]"
    (deadlock ~extra:false "a");
  Alcotest.(check string) "engine b names only its own waiter"
    "1 fiber(s) still blocked at t=0ns [waiter-b#2 waiting on mutex b]"
    (deadlock ~extra:true "b")

let test_mutex_mutual_exclusion () =
  let e = Sim.Engine.create () in
  let m = Sim.Sync.Mutex.create () in
  let inside = ref 0 in
  let max_inside = ref 0 in
  for _ = 1 to 10 do
    ignore
      (Sim.Engine.spawn e (fun () ->
           Sim.Sync.Mutex.with_lock m (fun () ->
               incr inside;
               max_inside := max !max_inside !inside;
               Sim.Engine.sleep 10L;
               decr inside)))
  done;
  Sim.Engine.run e;
  Alcotest.(check int) "never two inside" 1 !max_inside;
  Alcotest.(check int) "contended count" 9 (Sim.Sync.Mutex.contended m)

let test_mutex_fifo_fairness () =
  (* FIFO handoff must rotate the lock round-robin through contending
     fibers — no barging, no starvation — and bound every single wait by
     the other fibers' combined hold time. *)
  let e = Sim.Engine.create () in
  let m = Sim.Sync.Mutex.create ~name:"fair" () in
  let n = 8 and rounds = 20 in
  let hold = 1_000L in
  let grants = ref [] in
  for i = 0 to n - 1 do
    ignore
      (Sim.Engine.spawn e (fun () ->
           for _ = 1 to rounds do
             Sim.Sync.Mutex.lock m;
             grants := i :: !grants;
             Sim.Engine.sleep hold;
             Sim.Sync.Mutex.unlock m
           done))
  done;
  Sim.Engine.run e;
  let grants = Array.of_list (List.rev !grants) in
  Alcotest.(check int) "every round granted" (n * rounds)
    (Array.length grants);
  (* strict round-robin: after the first lap the grant order repeats *)
  for k = n to Array.length grants - 1 do
    if grants.(k) <> grants.(k - n) then
      Alcotest.failf "grant %d went to fiber %d, expected %d (barging)" k
        grants.(k)
        grants.(k - n)
  done;
  Alcotest.(check bool) "waits were measured" true
    (Int64.compare (Sim.Sync.Mutex.wait_ns m) 0L > 0);
  (* the longest wait is exactly the other fibers' holds: (n-1) x hold *)
  Alcotest.(check int64) "max wait bounded by (n-1) holds"
    (Int64.mul (Int64.of_int (n - 1)) hold)
    (Sim.Sync.Mutex.max_wait_ns m)

let test_rwlock_readers_parallel_writers_exclusive () =
  let e = Sim.Engine.create () in
  let rw = Sim.Sync.Rwlock.create () in
  let readers = ref 0 in
  let max_readers = ref 0 in
  let writer_active = ref false in
  let violations = ref 0 in
  for _ = 1 to 5 do
    ignore
      (Sim.Engine.spawn e (fun () ->
           Sim.Sync.Rwlock.with_read rw (fun () ->
               if !writer_active then incr violations;
               incr readers;
               max_readers := max !max_readers !readers;
               Sim.Engine.sleep 20L;
               decr readers)))
  done;
  ignore
    (Sim.Engine.spawn e (fun () ->
         Sim.Sync.Rwlock.with_write rw (fun () ->
             writer_active := true;
             if !readers > 0 then incr violations;
             Sim.Engine.sleep 20L;
             writer_active := false)));
  Sim.Engine.run e;
  Alcotest.(check int) "no lock violations" 0 !violations;
  Alcotest.(check bool) "readers overlapped" true (!max_readers > 1)

let test_semaphore_bounds () =
  let e = Sim.Engine.create () in
  let sem = Sim.Sync.Semaphore.create 3 in
  let inside = ref 0 in
  let max_inside = ref 0 in
  for _ = 1 to 10 do
    ignore
      (Sim.Engine.spawn e (fun () ->
           Sim.Sync.Semaphore.acquire sem;
           incr inside;
           max_inside := max !max_inside !inside;
           Sim.Engine.sleep 10L;
           decr inside;
           Sim.Sync.Semaphore.release sem))
  done;
  Sim.Engine.run e;
  Alcotest.(check bool) "at most 3 inside" true (!max_inside <= 3)

let test_resource_queueing () =
  let e = Sim.Engine.create () in
  let r = Sim.Resource.create 2 in
  ignore
    (Sim.Engine.spawn e (fun () ->
         for _ = 1 to 3 do
           ()
         done));
  for _ = 1 to 4 do
    ignore (Sim.Engine.spawn e (fun () -> Sim.Resource.use r 100L))
  done;
  Sim.Engine.run e;
  (* 4 jobs x 100ns on 2 servers: finishes at t=200 *)
  Alcotest.(check int64) "makespan" 200L (Sim.Engine.now e);
  Alcotest.(check int64) "busy time" 400L (Sim.Resource.busy_ns r)

let test_channel_fifo () =
  let e = Sim.Engine.create () in
  let ch = Sim.Sync.Channel.create () in
  let got = ref [] in
  ignore
    (Sim.Engine.spawn e (fun () ->
         for i = 1 to 5 do
           Sim.Sync.Channel.send ch i
         done;
         Sim.Sync.Channel.close ch));
  ignore
    (Sim.Engine.spawn e (fun () ->
         try
           while true do
             got := Sim.Sync.Channel.recv ch :: !got
           done
         with Sim.Sync.Channel.Closed -> ()));
  Sim.Engine.run e;
  Alcotest.(check (list int)) "fifo order" [ 5; 4; 3; 2; 1 ] !got

let test_ivar () =
  let e = Sim.Engine.create () in
  let iv = Sim.Sync.Ivar.create () in
  let got = ref 0 in
  ignore (Sim.Engine.spawn e (fun () -> got := Sim.Sync.Ivar.read iv));
  ignore
    (Sim.Engine.spawn e (fun () ->
         Sim.Engine.sleep 500L;
         Sim.Sync.Ivar.fill iv 42));
  Sim.Engine.run e;
  Alcotest.(check int) "ivar value" 42 !got;
  Alcotest.(check int64) "reader woke at fill time" 500L (Sim.Engine.now e)

let test_run_until () =
  let e = Sim.Engine.create () in
  let ticks = ref 0 in
  ignore
    (Sim.Engine.spawn e (fun () ->
         for _ = 1 to 100 do
           Sim.Engine.sleep 10L;
           incr ticks
         done));
  Sim.Engine.run_until e 250L;
  Alcotest.(check int) "partial progress" 25 !ticks;
  Sim.Engine.run e;
  Alcotest.(check int) "completes later" 100 !ticks

let test_channel_close_while_blocked () =
  let e = Sim.Engine.create () in
  let ch = Sim.Sync.Channel.create () in
  let got = ref (Some 99) in
  ignore
    (Sim.Engine.spawn ~name:"recv" e (fun () ->
         (* blocks on the empty channel before the closer runs *)
         got := Sim.Sync.Channel.recv_opt ch));
  ignore
    (Sim.Engine.spawn ~name:"closer" e (fun () ->
         Sim.Engine.sleep 10L;
         Sim.Sync.Channel.close ch));
  Sim.Engine.run e;
  Alcotest.(check (option int)) "recv_opt sees close as None" None !got

let test_channel_close_drains_then_none () =
  let e = Sim.Engine.create () in
  let ch = Sim.Sync.Channel.create () in
  let log = ref [] in
  ignore
    (Sim.Engine.spawn e (fun () ->
         Sim.Sync.Channel.send ch 1;
         Sim.Sync.Channel.send ch 2;
         Sim.Sync.Channel.close ch;
         log := Sim.Sync.Channel.recv_opt ch :: !log;
         log := Sim.Sync.Channel.recv_opt ch :: !log;
         log := Sim.Sync.Channel.recv_opt ch :: !log));
  Sim.Engine.run e;
  Alcotest.(check (list (option int)))
    "queued values drain before None"
    [ Some 1; Some 2; None ]
    (List.rev !log)

(* The popped-payload space leak: after pop, the heap's backing array must
   not keep the payload reachable. A weak pointer observes collection. *)
let payload_witness : Obj.t Weak.t = Weak.create 1

let[@inline never] heap_push_pop_cycle () =
  (* Built in a non-inlined frame so no register keeps the payload alive
     once we return. *)
  let h = Sim.Heap.create () in
  let payload = Bytes.make 4096 'p' in
  Weak.set payload_witness 0 (Some (Obj.repr payload));
  Sim.Heap.push h ~time:5L ~seq:1 payload;
  (match Sim.Heap.pop h with
  | Some e -> assert (e.Sim.Heap.payload == payload)
  | None -> assert false);
  h

let test_heap_pop_clears_slot () =
  let h = heap_push_pop_cycle () in
  Gc.full_major ();
  (match Weak.get payload_witness 0 with
  | None -> ()
  | Some _ -> Alcotest.fail "popped payload still reachable from the heap");
  (* the heap itself is still usable *)
  Sim.Heap.push h ~time:1L ~seq:2 (Bytes.create 1);
  Alcotest.(check int) "heap usable after clearing" 1 (Sim.Heap.length h)

let test_heap_shrinks_after_drain () =
  let h = Sim.Heap.create () in
  for i = 0 to 999 do
    Sim.Heap.push h ~time:(Int64.of_int (i * 31 mod 1009)) ~seq:i i
  done;
  let cap_full = Sim.Heap.capacity h in
  Alcotest.(check bool) "grew to hold 1000" true (cap_full >= 1000);
  for _ = 1 to 990 do
    ignore (Sim.Heap.pop h)
  done;
  Alcotest.(check int) "10 left" 10 (Sim.Heap.length h);
  Alcotest.(check bool) "backing array shrank" true
    (Sim.Heap.capacity h < cap_full / 8);
  (* remaining entries still drain in order *)
  let last = ref Int64.min_int in
  let rec drain () =
    match Sim.Heap.pop h with
    | None -> ()
    | Some e ->
        Alcotest.(check bool) "ordered" true (Int64.compare !last e.Sim.Heap.time <= 0);
        last := e.Sim.Heap.time;
        drain ()
  in
  drain ();
  Alcotest.(check bool) "empty" true (Sim.Heap.is_empty h)

(* Property: the heap pops in nondecreasing (time, seq) order. *)
let prop_heap_ordering =
  QCheck.Test.make ~count:200 ~name:"heap pops in order"
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let h = Sim.Heap.create () in
      List.iteri
        (fun i t -> Sim.Heap.push h ~time:(Int64.of_int t) ~seq:i ())
        times;
      let rec drain last ok =
        match Sim.Heap.pop h with
        | None -> ok
        | Some e ->
            let t = e.Sim.Heap.time in
            drain t (ok && Int64.compare last t <= 0)
      in
      drain Int64.min_int true)

let suite =
  [
    tc "virtual time ordering" `Quick test_virtual_time;
    tc "yield" `Quick test_sleep_zero_is_yield;
    tc "determinism" `Quick test_determinism;
    tc "fiber failure propagates" `Quick test_fiber_failure_propagates;
    tc "deadlock detection" `Quick test_deadlock_detected;
    tc "deadlock report per engine" `Quick test_deadlock_report_per_engine;
    tc "mutex exclusion" `Quick test_mutex_mutual_exclusion;
    tc "mutex fifo fairness" `Quick test_mutex_fifo_fairness;
    tc "rwlock semantics" `Quick test_rwlock_readers_parallel_writers_exclusive;
    tc "semaphore bounds" `Quick test_semaphore_bounds;
    tc "resource queueing" `Quick test_resource_queueing;
    tc "channel fifo + close" `Quick test_channel_fifo;
    tc "channel close while blocked" `Quick test_channel_close_while_blocked;
    tc "channel drains then None" `Quick test_channel_close_drains_then_none;
    tc "heap pop clears slot" `Quick test_heap_pop_clears_slot;
    tc "heap shrinks after drain" `Quick test_heap_shrinks_after_drain;
    tc "ivar" `Quick test_ivar;
    tc "run_until" `Quick test_run_until;
    QCheck_alcotest.to_alcotest prop_heap_ordering;
  ]
