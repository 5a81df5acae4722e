(** The observability battery: causal request DAGs reconstructed from
    spans + flow events (a qcheck property over random server fleets and a
    directed local-syscall check), flight-recorder triggered dumps (slow
    op, error return) carrying the offending reqid with or without span
    tracing, debug-mode unbalanced
    span detection, and the machine inspector registry (one probe per
    name, a replaced probe released). *)

let tc = Alcotest.test_case
let ok = Kernel.Errno.ok_exn

let ok_r = function
  | Ok v -> v
  | Error e -> Alcotest.failf "server op failed: %s" (Kernel.Errno.to_string e)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Causal DAG reconstruction                                            *)

(* Drive a random mix of client ops against a traced server; return the
   tracer's events after the fleet drains. *)
let traced_server_run ~seed ~nclients ~ops_per_client =
  let events = ref [] in
  Helpers.with_xv6 (fun machine os _vfs _handle ->
      Sim.Trace.set_capacity (Kernel.Machine.tracer machine) (1 lsl 18);
      Sim.Trace.set_enabled (Kernel.Machine.tracer machine) true;
      let sv =
        Server.Fileserver.start machine os
          {
            Server.Fileserver.tenants =
              [
                ("gold", Server.Qos.default_class);
                ("bronze", Server.Qos.default_class);
              ];
            max_inflight_total = 16;
          }
      in
      let done_ = Sim.Sync.Semaphore.create 0 in
      for c = 0 to nclients - 1 do
        Kernel.Machine.spawn ~name:(Printf.sprintf "client-%d" c) machine
          (fun () ->
            let tenant = if c mod 2 = 0 then "gold" else "bronze" in
            let cl =
              ok_r
                (Server.Client.attach machine
                   (Server.Fileserver.listener sv)
                   ~tenant)
            in
            let root = (Server.Client.root cl).Server.Proto.ino in
            let rng = Sim.Rng.create (seed + (1000 * c)) in
            for i = 0 to ops_per_client - 1 do
              let name = Printf.sprintf "c%d-f%d" c i in
              let a =
                ok_r (Server.Client.create cl ~dir:root ~name ~write:true)
              in
              let ino = a.Server.Proto.ino in
              ignore
                (ok_r
                   (Server.Client.write cl ino ~off:0
                      (Bytes.make (512 + Sim.Rng.int rng 8192) 'o')));
              ok_r (Server.Client.commit cl ino);
              (match Server.Client.read cl ino ~off:0 ~len:512 with
              | Ok _ -> ()
              | Error e ->
                  Alcotest.failf "read failed: %s" (Kernel.Errno.to_string e));
              ok_r (Server.Client.close_ cl ino);
              if Sim.Rng.bool rng then
                ok_r (Server.Client.unlink cl ~dir:root ~name)
            done;
            Server.Client.detach cl;
            Sim.Sync.Semaphore.release done_)
      done;
      for _ = 1 to nclients do
        Sim.Sync.Semaphore.acquire done_
      done;
      Server.Fileserver.stop sv;
      events := Sim.Trace.events (Kernel.Machine.tracer machine));
  !events

let check_all_connected ~what events =
  let reqs = Sim.Trace.Causal.requests events in
  Alcotest.(check bool)
    (what ^ ": some requests were traced")
    true (reqs <> []);
  List.iter
    (fun (r : Sim.Trace.Causal.request) ->
      if not r.connected then
        Alcotest.failf "%s: req %Ld split into components (%d fibers, %d spans, %d flow edges)"
          what r.req (List.length r.fibers) r.spans r.flow_edges;
      if r.orphan_finishes > 0 then
        Alcotest.failf "%s: req %Ld has %d orphan flow completions" what r.req
          r.orphan_finishes)
    reqs;
  Alcotest.(check (float 0.0))
    (what ^ ": connected ratio")
    1.0
    (Sim.Trace.Causal.connected_ratio events)

(* The qcheck property: whatever the fleet shape, every request observed in
   the trace reconstructs as ONE connected DAG — a request id never leaks
   across a hop without a flow edge stitching it. *)
let test_causal_property =
  QCheck.Test.make ~name:"every traced request is one connected DAG"
    ~count:8
    QCheck.(triple (int_range 1 3) (int_range 1 4) small_nat)
    (fun (nclients, ops_per_client, salt) ->
      let events =
        traced_server_run ~seed:(41 + salt) ~nclients ~ops_per_client
      in
      let reqs = Sim.Trace.Causal.requests events in
      reqs <> []
      && List.for_all
           (fun (r : Sim.Trace.Causal.request) ->
             r.connected && r.orphan_finishes = 0)
           reqs)

(* Directed: local mounts mint one request per syscall; cross-fiber device
   completions must still fold into the issuing request's DAG. *)
let test_causal_local () =
  Helpers.with_xv6 (fun machine os _vfs _handle ->
      Sim.Trace.set_capacity (Kernel.Machine.tracer machine) (1 lsl 16);
      Sim.Trace.set_enabled (Kernel.Machine.tracer machine) true;
      ok (Kernel.Os.mkdir os "/d");
      for i = 0 to 9 do
        ok
          (Kernel.Os.write_file os
             (Printf.sprintf "/d/f%d" i)
             (Bytes.make 20000 'z'))
      done;
      ok (Kernel.Os.sync os);
      for i = 0 to 9 do
        ignore (ok (Kernel.Os.read_file os (Printf.sprintf "/d/f%d" i)))
      done;
      check_all_connected ~what:"local syscalls"
        (Sim.Trace.events (Kernel.Machine.tracer machine)))

(* Server runs must yield multi-fiber DAGs: the dispatch hop from session
   fiber to handler fiber is part of the request. *)
let test_causal_server_multifiber () =
  let events = traced_server_run ~seed:7 ~nclients:2 ~ops_per_client:3 in
  check_all_connected ~what:"server fleet" events;
  let reqs = Sim.Trace.Causal.requests events in
  Alcotest.(check bool)
    "some requests span multiple fibers" true
    (List.exists
       (fun (r : Sim.Trace.Causal.request) -> List.length r.fibers > 1)
       reqs)

(* ------------------------------------------------------------------ *)
(* Flight-recorder triggers                                             *)

(* Trigger a slow-syscall dump; return its reason, text and the reqid it
   names. *)
let slow_dump machine os =
  let tr = Kernel.Machine.tracer machine in
  let dumps0 = Sim.Trace.dump_count tr in
  Kernel.Os.set_slow_threshold os (Some 1_000L);
  (* a 64KB write is far over 1 us of virtual time *)
  ok (Kernel.Os.write_file os "/slow" (Bytes.make 65536 's'));
  Kernel.Os.set_slow_threshold os None;
  Alcotest.(check bool)
    "slow syscall produced a dump" true
    (Sim.Trace.dump_count tr > dumps0);
  match Sim.Trace.last_dump tr with
  | None -> Alcotest.fail "no dump content"
  | Some (reason, content) -> (
      let reqid =
        List.find_map
          (fun line ->
            if String.length line > 7 && String.sub line 0 7 = "reqid: " then
              Int64.of_string_opt
                (String.trim (String.sub line 7 (String.length line - 7)))
            else None)
          (String.split_on_char '\n' content)
      in
      match reqid with
      | None -> Alcotest.fail "dump has no reqid line"
      | Some r ->
          Alcotest.(check bool) "offending reqid is nonzero" true (r <> 0L);
          (reason, content, r))

let test_slow_op_trigger () =
  Helpers.with_xv6 (fun machine os _vfs _handle ->
      Sim.Trace.set_enabled (Kernel.Machine.tracer machine) true;
      let reason, content, r = slow_dump machine os in
      Alcotest.(check bool)
        "reason names the slow syscall" true
        (contains ~sub:"slow syscall" reason);
      Alcotest.(check bool)
        "dump renders the request's causal trace" true
        (contains ~sub:(Printf.sprintf "causal trace for req %Ld" r) content))

(* Notes are always on, so even with span tracing off the causal section
   of a dump lists the offending request's syscall note. *)
let test_dump_without_tracing () =
  Helpers.with_xv6 (fun machine os _vfs _handle ->
      let _, content, r = slow_dump machine os in
      let header = Printf.sprintf "-- causal trace for req %Ld (" r in
      let rec after = function
        | line :: rest when contains ~sub:header line -> rest
        | _ :: rest -> after rest
        | [] -> Alcotest.fail "dump has no causal section"
      in
      let causal = after (String.split_on_char '\n' content) in
      Alcotest.(check bool)
        "causal section lists the request's syscall note" true
        (List.exists (contains ~sub:"info syscall:") causal))

let test_error_trigger () =
  Helpers.with_xv6 (fun machine os _vfs _handle ->
      let tr = Kernel.Machine.tracer machine in
      let dumps0 = Sim.Trace.dump_count tr in
      (* errno returns are ring-noted but do not dump by default *)
      (match Kernel.Os.stat os "/missing" with
      | Ok _ -> Alcotest.fail "stat of missing path succeeded"
      | Error _ -> ());
      Alcotest.(check int)
        "no dump without opt-in" dumps0 (Sim.Trace.dump_count tr);
      Kernel.Os.set_trigger_errors os true;
      (match Kernel.Os.stat os "/missing" with
      | Ok _ -> Alcotest.fail "stat of missing path succeeded"
      | Error _ -> ());
      Kernel.Os.set_trigger_errors os false;
      Alcotest.(check bool)
        "error return dumped once opted in" true
        (Sim.Trace.dump_count tr > dumps0))

let test_ring_wraps () =
  Helpers.in_sim (fun machine ->
      let tr = Kernel.Machine.tracer machine in
      Sim.Trace.clear tr;
      for i = 0 to 9999 do
        if i mod 100 = 0 then Sim.Engine.sleep 1L;
        Sim.Trace.note tr ~kind:"spam" (string_of_int i)
      done;
      let notes = Sim.Trace.notes tr in
      Alcotest.(check bool)
        "ring is bounded" true
        (List.length notes < 10_000);
      Alcotest.(check int)
        "retained + dropped counts every note" 10_000
        (Sim.Trace.length tr + Sim.Trace.dropped tr);
      Alcotest.(check int) "only notes recorded" (Sim.Trace.length tr)
        (List.length notes);
      let rec sorted = function
        | a :: (b :: _ as rest) ->
            Int64.compare a.Sim.Trace.ts b.Sim.Trace.ts <= 0 && sorted rest
        | _ -> true
      in
      Alcotest.(check bool) "entries time-ordered" true (sorted notes))

(* ------------------------------------------------------------------ *)
(* Debug-mode span balance checking                                     *)

let test_unbalanced_span_at_exit () =
  let engine = Sim.Engine.create () in
  let tr = Sim.Trace.create engine in
  Sim.Trace.set_enabled tr true;
  Sim.Trace.set_debug tr true;
  ignore
    (Sim.Engine.spawn engine ~name:"leaky" (fun () ->
         Sim.Trace.span_begin tr "never-closed"));
  let msg =
    try
      Sim.Engine.run engine;
      None
    with Sim.Trace.Unbalanced_span m -> Some m
  in
  match msg with
  | None -> Alcotest.fail "open span at fiber exit did not raise"
  | Some m ->
      Alcotest.(check bool)
        "message names the leaked span" true
        (contains ~sub:"never-closed" m)

let test_mismatched_span_end () =
  let engine = Sim.Engine.create () in
  let tr = Sim.Trace.create engine in
  Sim.Trace.set_enabled tr true;
  Sim.Trace.set_debug tr true;
  let raised = ref false in
  ignore
    (Sim.Engine.spawn engine ~name:"crossed" (fun () ->
         Sim.Trace.span_begin tr "outer";
         (try Sim.Trace.span_end tr "inner"
          with Sim.Trace.Unbalanced_span _ -> raised := true);
         Sim.Trace.span_end tr "outer"));
  Sim.Engine.run engine;
  Alcotest.(check bool) "mismatched span_end raises" true !raised

let test_balanced_spans_pass () =
  let engine = Sim.Engine.create () in
  let tr = Sim.Trace.create engine in
  Sim.Trace.set_enabled tr true;
  Sim.Trace.set_debug tr true;
  ignore
    (Sim.Engine.spawn engine ~name:"clean" (fun () ->
         Sim.Trace.with_span tr "a" (fun () ->
             Sim.Trace.with_span tr "b" (fun () -> Sim.Engine.sleep 10L))));
  Sim.Engine.run engine (* must not raise *)

(* ------------------------------------------------------------------ *)
(* Inspector registry                                                   *)

let test_inspectors () =
  Helpers.with_xv6 (fun machine os _vfs _handle ->
      ok (Kernel.Os.write_file os "/f" (Bytes.make 4096 'q'));
      let json = Kernel.Machine.inspect machine in
      match json with
      | Util.Json.Obj fields ->
          List.iter
            (fun name ->
              Alcotest.(check bool)
                (name ^ " inspector registered")
                true (List.mem_assoc name fields))
            [ "vfs"; "bcache"; "cas"; "log" ];
          (* name-sorted, deterministic *)
          let names = List.map fst fields in
          Alcotest.(check (list string))
            "inspectors sorted" (List.sort compare names) names
      | _ -> Alcotest.fail "inspect did not return an object")

let test_inspector_error_isolated () =
  Helpers.in_sim (fun machine ->
      Kernel.Machine.register_inspector machine ~name:"boom" (fun () ->
          failwith "probe exploded");
      match Kernel.Machine.inspect machine with
      | Util.Json.Obj fields -> (
          match List.assoc_opt "boom" fields with
          | Some (Util.Json.Obj [ ("error", Util.Json.String _) ]) -> ()
          | _ -> Alcotest.fail "raising probe not isolated as error object")
      | _ -> Alcotest.fail "inspect did not return an object")

(* Each mount registers its own "bcache" probe: the newer one must take
   the older one's place, not shadow it while keeping its cache alive. *)
let test_reregister_releases_old_probe () =
  let machine = Kernel.Machine.create ~disk_blocks:64 ~block_size:4096 () in
  let register label =
    let v = Bytes.of_string label in
    Kernel.Machine.register_inspector machine ~name:"x" (fun () ->
        Util.Json.String (Bytes.to_string v));
    v
  in
  let probe = Weak.create 1 in
  Weak.set probe 0 (Some (register "first"));
  ignore (register "second");
  Gc.full_major ();
  Alcotest.(check bool) "first probe collected" false (Weak.check probe 0);
  match Kernel.Machine.inspect machine with
  | Util.Json.Obj fields ->
      Alcotest.(check (list string))
        "one entry per name" [ "x" ] (List.map fst fields);
      Alcotest.(check bool)
        "second probe answers" true
        (List.assoc "x" fields = Util.Json.String "second")
  | _ -> Alcotest.fail "inspect did not return an object"

let suite =
  [
    QCheck_alcotest.to_alcotest test_causal_property;
    tc "causal: local syscalls connected" `Quick test_causal_local;
    tc "causal: server requests cross fibers" `Quick
      test_causal_server_multifiber;
    tc "flight: slow op dumps offending req" `Quick test_slow_op_trigger;
    tc "flight: dump shows the request with tracing off" `Quick
      test_dump_without_tracing;
    tc "flight: error return dump is opt-in" `Quick test_error_trigger;
    tc "flight: ring bounded and ordered" `Quick test_ring_wraps;
    tc "trace debug: open span at exit" `Quick test_unbalanced_span_at_exit;
    tc "trace debug: mismatched end" `Quick test_mismatched_span_end;
    tc "trace debug: balanced spans pass" `Quick test_balanced_spans_pass;
    tc "inspect: registry covers subsystems" `Quick test_inspectors;
    tc "inspect: raising probe isolated" `Quick test_inspector_error_isolated;
    tc "inspect: re-registering a name releases the old probe" `Quick
      test_reregister_releases_old_probe;
  ]
