(** The repository benchmark.

    [main.exe --workload W --seed N --seconds S --trace 0|1] runs workload
    W on the four stacks in turn, in one process: Bento, C-kernel, FUSE,
    ext4. Each stack gets a fresh simulated machine and runs mkfs, mount,
    prefill, the measured window (a fixed op count, closed loop), unmount,
    fsck, remount and read-back. Set-up time is the median of that set-up
    and two more without a window. The last stdout line is one JSON object:
    [correct], [attempted], [failed] and [metrics] — the end-to-end metrics
    with [--trace 0]; with [--trace 1] the per-layer metrics of a profiled
    run, after checking that its virtual metrics equal those of an
    unprofiled run (made in a child process, so the two runs' machines
    never share one heap). *)

module Os = Kernel.Os

let disk_blocks = 256 * 1024 (* 1 GiB of 4 KiB blocks *)
let setup_rounds = 3

(* Counters, profile and GC state at a window boundary. *)
type snap = {
  vns : int;
  host : float;
  counters : (string * int64) list;
  self : (string * int64) list;  (** profiler self ns by layer *)
  waits : (string * int64) list;  (** lock wait ns by "<layer>/<lock>" *)
  alloc_words : float;
  major_gcs : int;
}

let snapshot machine =
  let profile = Kernel.Machine.profile machine in
  let profiled = Sim.Profile.enabled profile in
  let gc = Gc.quick_stat () in
  {
    vns = Int64.to_int (Kernel.Machine.now machine);
    host = Unix.gettimeofday ();
    counters = Kernel.Machine.counter_snapshot machine;
    self =
      (if profiled then
         List.map
           (fun (l : Sim.Profile.layer_time) -> (l.layer, l.self_ns))
           (Sim.Profile.summary profile)
       else []);
    waits = (if profiled then Sim.Profile.lock_waits profile else []);
    alloc_words = gc.minor_words +. gc.major_words -. gc.promoted_words;
    major_gcs = gc.major_collections;
  }

(* The measured window of one stack: every ratio comes from the deltas
   between its two snapshots, so set-up work never leaks into it. *)
type window = {
  ops : int;
  lat : Samples.t;  (** virtual ns of every op that succeeded *)
  w0 : snap;
  w1 : snap;
}

let phases = [ "mkfs"; "mount"; "prefill"; "verify" ]

type result = {
  stack : Stack.t;
  window : window option;  (** [None] when the stack's engine failed *)
  attempted : int;
  failed : int;
  rounds : float array list;  (** host s per phase of each set-up round *)
  probe : Probe.t;
}

let delta_of sel w key =
  let get s = Option.value ~default:0L (List.assoc_opt key (sel s)) in
  Int64.to_float (Int64.sub (get w.w1) (get w.w0))

let waits_under w layers =
  let sum s =
    List.fold_left
      (fun acc (k, ns) ->
        match String.index_opt k '/' with
        | Some i when List.mem (String.sub k 0 i) layers -> Int64.add acc ns
        | _ -> acc)
      0L s.waits
  in
  Int64.to_float (Int64.sub (sum w.w1) (sum w.w0))

let window_s w = float_of_int (w.w1.vns - w.w0.vns) /. 1e9
let window_host_s w = w.w1.host -. w.w0.host

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ------------------------------------------------------------------ *)
(* Running one stack *)

(* Bring [stack] up on a fresh machine and run one round of the workload:
   set-up, and with [measured] the window and the read-back. *)
let run_stack ~traced ~measured (fresh : unit -> Workload.instance) stack =
  let machine = Kernel.Machine.create ~disk_blocks ~block_size:4096 () in
  if traced then Sim.Profile.enable (Kernel.Machine.profile machine);
  let p = Probe.create machine ~traced in
  let d = Probe.ctx p ~fiber:(-1) in
  let inst = fresh () in
  let planned = if measured then inst.fibers * inst.ops else 0 in
  let lat = Samples.create () in
  let window = ref None and phase_s = Array.make (List.length phases) 0. in
  let completed = ref 0 and failed = ref 0 and checks = ref 0 in
  let fail what msg =
    incr failed;
    if !failed <= 5 then
      Printf.eprintf "perfbench: %s %s: %s\n%!" (Stack.name stack) what msg
  in
  let ok what = function
    | Ok v -> v
    | Error e -> raise (Probe.Failed (what ^ ": " ^ Kernel.Errno.to_string e))
  in
  (* The returned function unmounts after dropping the page cache: every
     machine stays reachable after its run (Kernel.Pushdown keeps a global
     registry of them), and four stacks' cached pages would otherwise pile
     up in this process. *)
  let mount () =
    let vfs, unmount = ok "mount" (Stack.mount stack machine) in
    p.os <- Some (Os.create vfs);
    fun () ->
      ok "drop_caches" (Kernel.Vfs.drop_caches vfs);
      unmount ()
  in
  let measure () =
    (* Start every window with the same GC state, so that host time does
       not depend on where the set-up left a major cycle. *)
    Gc.full_major ();
    let w0 = snapshot machine in
    p.window <- true;
    (* spans of at most 4096 ops per stack are kept *)
    p.stride <- max 1 (planned / 4096);
    let finished = Sim.Sync.Semaphore.create 0 in
    for f = 0 to inst.fibers - 1 do
      Kernel.Machine.spawn ~name:(Printf.sprintf "client%d" f) machine
        (fun () ->
          let c = Probe.ctx p ~fiber:f in
          for i = 0 to inst.ops - 1 do
            let kind, body = inst.op c i in
            (match Probe.op c ~id:((f * inst.ops) + i + 1) kind body with
            | vns -> Samples.add lat vns
            | exception Probe.Failed msg -> fail kind msg);
            incr completed
          done;
          Sim.Sync.Semaphore.release finished)
    done;
    for _ = 1 to inst.fibers do
      Sim.Sync.Semaphore.acquire finished
    done;
    p.window <- false;
    window := Some { ops = planned; lat; w0; w1 = snapshot machine }
  in
  let phase i name f =
    let r, s = Probe.phase d name f in
    phase_s.(i) <- phase_s.(i) +. s;
    r
  in
  Kernel.Machine.spawn ~name:"perfbench" machine (fun () ->
      phase 0 "mkfs" (fun () -> ok "mkfs" (Stack.mkfs stack machine));
      let unmount = ref (phase 1 "mount" mount) in
      phase 2 "prefill" (fun () -> inst.prefill d);
      if inst.cold then
        unmount :=
          phase 1 "remount" (fun () ->
              !unmount ();
              mount ());
      if measured then measure ();
      phase 1 "unmount" (fun () ->
          inst.drain d;
          !unmount ());
      phase 3 "verify" (fun () ->
          incr checks;
          (match Stack.fsck stack machine with
          | [] -> ()
          | e :: _ as errs ->
              fail "fsck"
                (Printf.sprintf "%d errors, first: %s" (List.length errs) e));
          if measured then begin
            let unmount = mount () in
            let n, bad = inst.readback d in
            checks := !checks + n;
            for _ = 1 to bad do
              fail "read-back" "bytes differ from what was written"
            done;
            unmount ()
          end));
  (try Kernel.Machine.run machine with
  | (Sim.Engine.Fiber_failure _ | Sim.Engine.Deadlock _) as e ->
      window := None;
      let unfinished = planned - !completed in
      (* the failure itself counts even when every op had finished *)
      failed := !failed + max 1 unfinished;
      Printf.eprintf "perfbench: %s: engine failed (%d ops unfinished): %s\n%!"
        (Stack.name stack) unfinished
        (match e with
        | Sim.Engine.Fiber_failure (fiber, inner) ->
            fiber ^ ": " ^ Printexc.to_string inner
        | e -> Printexc.to_string e));
  {
    stack;
    window = !window;
    attempted = planned + !checks;
    failed = !failed;
    rounds = [ phase_s ];
    probe = p;
  }

(* ------------------------------------------------------------------ *)
(* Metrics *)

type value = { v : float option; unit_ : string }

let some v unit_ = { v = Some v; unit_ }
let per_op w x = x /. float_of_int w.ops
let ratio a b = if b = 0. then 0. else a /. b
let us ns = float_of_int ns /. 1e3

(* The virtual end-to-end metrics of one stack; [None] when it failed. *)
let virtual_metrics r =
  let ops_s, p50, p99 =
    match r.window with
    | None -> (None, None, None)
    | Some w -> (
        let ops_s = Some (float_of_int w.ops /. window_s w) in
        match Samples.percentiles w.lat [ 0.5; 0.99 ] with
        | [ Some p50; Some p99 ] -> (ops_s, Some (us p50), Some (us p99))
        | _ -> (ops_s, None, None))
  in
  let s = Stack.name r.stack in
  [
    (s ^ ".ops_s", { v = ops_s; unit_ = "1/s" });
    (s ^ ".p50_us", { v = p50; unit_ = "us" });
    (s ^ ".p99_us", { v = p99; unit_ = "us" });
  ]

let run_s results =
  List.fold_left
    (fun acc r ->
      match r.window with Some w -> acc +. window_host_s w | None -> acc)
    0. results

(* Host set-up seconds of one stack: the median of its set-up rounds. *)
let setup_s r =
  median (List.map (Array.fold_left ( +. ) 0.) r.rounds)

(* VmHWM of this process, or the OCaml heap's peak where /proc is absent. *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> raise Not_found
          | Some line -> (
              match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
              | Some kb -> float_of_int kb /. 1024.
              | None -> find ())
        in
        find ())
  in
  try from_proc ()
  with Sys_error _ | Not_found ->
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
    /. (1024. *. 1024.)

let totals results =
  List.fold_left (fun (a, f) r -> (a + r.attempted, f + r.failed)) (0, 0) results

let end_to_end results =
  let attempted, failed = totals results in
  let virt = List.map virtual_metrics results in
  (* every stack's ops_s, then every p50, then every p99 *)
  List.concat_map (fun i -> List.map (fun m -> List.nth m i) virt) [ 0; 1; 2 ]
  @ [
      ("run_s", some (run_s results) "s");
      ("setup_s", some (List.fold_left (fun a r -> a +. setup_s r) 0. results) "s");
      ("peak_rss_mb", some (peak_rss_mb ()) "MB");
      ( "ok_ratio",
        some (1. -. (float_of_int failed /. float_of_int attempted)) "ratio" );
    ]

let per_layer r =
  let setup =
    List.mapi
      (fun i ph ->
        ( Printf.sprintf "setup.%s_s" ph,
          some (median (List.map (fun t -> t.(i)) r.rounds)) "s" ))
      phases
  in
  let window =
    match r.window with
    | None -> []
    | Some w ->
        let c = delta_of (fun s -> s.counters) w in
        let self layer = per_op w (delta_of (fun s -> s.self) w layer) in
        let call_p99 name =
          match Hashtbl.find_opt r.probe.calls name with
          | None -> 0.
          | Some smp -> (
              match Samples.percentiles smp [ 0.99 ] with
              | [ Some ns ] -> us ns
              | _ -> 0.)
        in
        let written = c "ssd.blocks_written" in
        [
          ("sim.host_us_per_op", some (per_op w (window_host_s w *. 1e6)) "us");
          ( "sim.alloc_mb_per_kop",
            some (per_op w ((w.w1.alloc_words -. w.w0.alloc_words) *. 8. /. 1e3)) "MB" );
          ( "sim.major_gcs",
            some (float_of_int (w.w1.major_gcs - w.w0.major_gcs)) "count" );
          ( "os.crossings_per_op",
            some (per_op w (c "machine.syscalls" +. c "machine.fuse_crossings")) "count" );
        ]
        @ List.map
            (fun call -> (Printf.sprintf "os.%s.p99_us" call, some (call_p99 call) "us"))
            [ "pread"; "write"; "stat"; "open"; "fsync"; "unlink" ]
        @ [
            ("vfs.self_ns_per_op", some (self "vfs") "ns");
            ("vfs.lock_wait_ns_per_op", some (per_op w (waits_under w [ "vfs" ])) "ns");
            ( "vfs.readahead_hit_ratio",
              some (ratio (c "machine.readahead_hit") (c "machine.readahead_issued")) "ratio" );
            ( "bcache.hit_ratio",
              some (ratio (c "bcache.hits") (c "bcache.hits" +. c "bcache.misses")) "ratio" );
            ("bcache.self_ns_per_op", some (self "bcache") "ns");
            ("log.commits_per_op", some (per_op w (c "machine.log_commits")) "count");
            ( "log.commit_mean_blocks",
              some (ratio (c "machine.log_commit_blocks") (c "machine.log_commits")) "blocks" );
            ("log.self_ns_per_op", some (self "log") "ns");
            ("fs.self_ns_per_op", some (self "fs") "ns");
            ( "fs.lock_wait_ns_per_op",
              some (per_op w (waits_under w [ "fs"; "log" ])) "ns" );
            ("ssd.read_blocks_per_op", some (per_op w (c "ssd.blocks_read")) "blocks");
            ("ssd.write_blocks_per_op", some (per_op w written) "blocks");
            ("ssd.blocks_per_write_cmd", some (ratio written (c "ssd.write_cmds")) "blocks");
            ("ssd.flushes_per_op", some (per_op w (c "ssd.flushes")) "count");
            ( "ssd.write_amplification",
              some (ratio (written *. 4096.) (float_of_int r.probe.written)) "ratio" );
            ("device.self_ns_per_op", some (self "device-queue" +. self "device-io") "ns");
          ]
        @
        if r.stack = Stack.Fuse then
          [
            ("transport.requests_per_op", some (per_op w (c "fuse.requests")) "count");
            ("transport.self_ns_per_op", some (self "fuse-transport") "ns");
          ]
        else []
  in
  List.map (fun (n, v) -> (Stack.name r.stack ^ "." ^ n, v)) (window @ setup)

(* ------------------------------------------------------------------ *)
(* Child processes *)

(* Run [f] in a child process and return its result through a pipe;
   [None] when the child failed. *)
let in_child f =
  let rd, wr = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      (try Marshal.to_channel oc (Some (f ())) []
       with e ->
         Printf.eprintf "perfbench: child process failed: %s\n%!"
           (Printexc.to_string e));
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let r = try Marshal.from_channel ic with End_of_file -> None in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      r

(* ------------------------------------------------------------------ *)
(* Output *)

let json_metrics metrics =
  let open Util.Json in
  Obj
    (List.map
       (fun (name, { v; unit_ }) ->
         ( name,
           Obj
             [
               ("value", match v with Some x -> Float x | None -> Null);
               ("unit", String unit_);
             ] ))
       metrics)

let write_spans ~workload ~seed results =
  let dir = "perfbench/_out" in
  try
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (Printf.sprintf "spans-%s-%d.json" workload seed) in
    Out_channel.with_open_text path (fun oc ->
        output_string oc
          (Probe.trace_json (List.map (fun r -> (Stack.name r.stack, r.probe)) results)));
    Printf.printf "spans: %s\n" path
  with Sys_error e -> Printf.eprintf "perfbench: spans not written: %s\n" e

let usage () =
  prerr_endline
    "usage: main.exe --workload cached|mail|stream --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10 and trace = ref 0 in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest ->
        seconds := Option.value ~default:0 (int_of_string_opt v); parse rest
    | "--trace" :: v :: rest ->
        trace := Option.value ~default:(-1) (int_of_string_opt v); parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let wl =
    match List.find_opt (fun (w : Workload.t) -> w.name = !workload) Workload.all with
    | Some w -> w
    | None -> usage ()
  in
  let seed = match !seed with Some s -> s | None -> usage () in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  (* Every stack's machine stays live until exit (see [run_stack]); a
     smaller GC slack than the default roughly halves the peak RSS of the
     streaming workload. *)
  Gc.set { (Gc.get ()) with space_overhead = 40 };
  let ops = max 1 (wl.base_ops * !seconds / 10) in
  let fresh = wl.make ~seed ~ops in
  let run ~traced = List.map (run_stack ~traced ~measured:true fresh) Stack.all in
  let results, metrics, consistent =
    if !trace = 0 then begin
      (* The extra set-ups run each on a fresh machine (an ext4 mkfs over a
         used device replays the old journal), in a child process so that
         their machines never add to this process's peak RSS. *)
      let extra =
        in_child (fun () ->
            List.map
              (fun st ->
                let rs =
                  List.init (setup_rounds - 1) (fun _ ->
                      run_stack ~traced:false ~measured:false fresh st)
                in
                let attempted, failed = totals rs in
                (List.concat_map (fun r -> r.rounds) rs, attempted, failed))
              Stack.all)
      in
      let results = run ~traced:false in
      let results =
        match extra with
        | Some extra ->
            List.map2
              (fun r (rounds, a, f) ->
                {
                  r with
                  rounds = r.rounds @ rounds;
                  attempted = r.attempted + a;
                  failed = r.failed + f;
                })
              results extra
        | None ->
            List.map (fun r -> { r with attempted = r.attempted + 1; failed = r.failed + 1 }) results
      in
      (results, end_to_end results, true)
    end
    else begin
      let reference =
        in_child (fun () ->
            let rs = run ~traced:false in
            (List.concat_map virtual_metrics rs, run_s rs))
      in
      let traced = run ~traced:true in
      let same, overhead =
        match reference with
        | Some (virt, base) ->
            (List.concat_map virtual_metrics traced = virt, ratio (run_s traced -. base) base)
        | None -> (false, 0.)
      in
      if not same then
        prerr_endline
          "perfbench: the traced run's virtual metrics differ from the untraced run's";
      write_spans ~workload:wl.name ~seed traced;
      ( traced,
        List.concat_map per_layer traced @ [ ("trace.overhead_frac", some overhead "ratio") ],
        same )
    end
  in
  let attempted, failed = totals results in
  Printf.printf "perfbench %s seed=%d\n" wl.name seed;
  List.iter
    (fun r ->
      match r.window with
      | Some w ->
          Printf.printf "  %-8s %d ops, %d latency samples, %.6f virtual s, %.3f host s\n"
            (Stack.name r.stack) w.ops (Samples.count w.lat) (window_s w) (window_host_s w)
      | None -> Printf.printf "  %-8s failed\n" (Stack.name r.stack))
    results;
  List.iter
    (fun (name, { v; unit_ }) ->
      match v with
      | Some x -> Printf.printf "  %-40s %18.4f %s\n" name x unit_
      | None -> Printf.printf "  %-40s %18s %s\n" name "n/a" unit_)
    metrics;
  print_endline
    (Util.Json.to_string
       (Util.Json.Obj
          [
            ("correct", Util.Json.Bool (failed = 0 && consistent));
            ("attempted", Util.Json.Int attempted);
            ("failed", Util.Json.Int failed);
            ("metrics", json_metrics metrics);
          ]))
