(** The bento command-line tool: inspect layouts, run smoke workloads with
    statistics, run crash-recovery trials, and print the bug study.

      dune exec bin/bento_cli.exe -- layout --blocks 1048576
      dune exec bin/bento_cli.exe -- smoke --fs bento
      dune exec bin/bento_cli.exe -- crashtest --trials 10
      dune exec bin/bento_cli.exe -- bugstudy *)

open Cmdliner

let ok = Kernel.Errno.ok_exn
let xv6 = Stacks.xv6

let stack_names = String.concat "|" (List.map Stacks.name Stacks.all)

(* --fs: one stack, parsed by the facade; anything else is a usage error
   (exit 2) before any work runs. *)
let stack_arg =
  let parse s =
    Option.to_result ~none:("unknown stack, want " ^ stack_names)
      (Stacks.of_string s)
  in
  let print ppf k = Format.pp_print_string ppf (Stacks.name k) in
  Arg.(
    value
    & opt (conv' (parse, print)) Stacks.Bento
    & info [ "fs" ] ~doc:stack_names)

(* Bring up [k] on a fresh 1 GB machine, run [f os], unmount and drain. *)
let with_stack k f =
  let machine = Stacks.machine ~disk_blocks:(256 * 1024) () in
  Stacks.run k machine (f machine);
  machine

(* ------------------------------------------------------------------ *)

let layout_cmd =
  let blocks =
    Arg.(value & opt int (1024 * 1024) & info [ "blocks" ] ~doc:"Device size in 4KB blocks")
  in
  let run blocks =
    let ninodes = min 262144 (max 4096 (blocks / 32)) in
    let sb = Xv6fs.Layout.compute ~size:blocks ~ninodes ~nlog:126 in
    Printf.printf "xv6fs layout for a %d-block (%d MB) device:\n" blocks
      (blocks * 4096 / 1024 / 1024);
    Printf.printf "  superblock   block 1\n";
    Printf.printf "  log          blocks %d..%d (%d blocks incl. header)\n"
      sb.Xv6fs.Layout.logstart
      (sb.Xv6fs.Layout.logstart + sb.Xv6fs.Layout.nlog - 1)
      sb.Xv6fs.Layout.nlog;
    Printf.printf "  inodes       blocks %d..%d (%d inodes)\n"
      sb.Xv6fs.Layout.inodestart
      (sb.Xv6fs.Layout.bmapstart - 1)
      sb.Xv6fs.Layout.ninodes;
    Printf.printf "  bitmap       blocks %d..%d\n" sb.Xv6fs.Layout.bmapstart
      (sb.Xv6fs.Layout.datastart - 1);
    Printf.printf "  data         blocks %d..%d (%d blocks, %d MB)\n"
      sb.Xv6fs.Layout.datastart (sb.Xv6fs.Layout.size - 1)
      sb.Xv6fs.Layout.nblocks
      (sb.Xv6fs.Layout.nblocks * 4096 / 1024 / 1024);
    Printf.printf "  max file     %d bytes (%.2f GB)\n"
      Xv6fs.Layout.max_file_size
      (float_of_int Xv6fs.Layout.max_file_size /. 1e9)
  in
  Cmd.v (Cmd.info "layout" ~doc:"Print the computed on-disk layout")
    Term.(const run $ blocks)

(* ------------------------------------------------------------------ *)

let smoke_cmd =
  let run k =
    let machine =
      with_stack k (fun machine os ->
        let t0 = Kernel.Machine.now machine in
        ok (Kernel.Os.mkdir os "/smoke");
        for i = 0 to 99 do
          let fd =
            ok (Kernel.Os.open_ os (Printf.sprintf "/smoke/f%02d" i) Kernel.Os.(creat wronly))
          in
          ignore (ok (Kernel.Os.pwrite os fd ~pos:0 (Bytes.make 16384 'x')));
          if i mod 10 = 0 then ok (Kernel.Os.fsync os fd);
          ok (Kernel.Os.close os fd)
        done;
        for i = 0 to 99 do
          ignore (ok (Kernel.Os.read_file os (Printf.sprintf "/smoke/f%02d" i)))
        done;
        for i = 0 to 99 do
          ok (Kernel.Os.unlink os (Printf.sprintf "/smoke/f%02d" i))
        done;
        ok (Kernel.Os.sync os);
        let dt = Int64.sub (Kernel.Machine.now machine) t0 in
        Printf.printf "%s: 100 x (create 16K + read + delete) in %.3f virtual ms\n"
          (Stacks.name k)
          (Int64.to_float dt /. 1e6))
    in
    let stats = Device.Ssd.stats (Kernel.Machine.disk machine) in
    Printf.printf "device: ";
    Sim.Stats.iter_counters stats (fun name c ->
        Printf.printf "%s=%Ld " name (Sim.Stats.Counter.get c));
    print_newline ()
  in
  Cmd.v (Cmd.info "smoke" ~doc:"Run a smoke workload and print device statistics")
    Term.(const run $ stack_arg)

(* ------------------------------------------------------------------ *)

let crashtest_cmd =
  let trials = Arg.(value & opt int 10 & info [ "trials" ] ~doc:"Number of trials") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base seed") in
  let run trials seed =
    let failures = ref 0 in
    for t = 0 to trials - 1 do
      let machine = Kernel.Machine.create ~disk_blocks:32768 ~block_size:4096 () in
      Kernel.Machine.spawn machine (fun () ->
          ok (Bento.Bentofs.mkfs machine xv6);
          let vfs, h = ok (Bento.Bentofs.mount ~background:false machine xv6) in
          let os = Kernel.Os.create vfs in
          let rng = Sim.Rng.create (seed + t) in
          for i = 0 to 29 do
            let fd =
              ok (Kernel.Os.open_ os (Printf.sprintf "/f%d" i) Kernel.Os.(creat wronly))
            in
            ignore
              (ok (Kernel.Os.pwrite os fd ~pos:0 (Bytes.make (1 + Sim.Rng.int rng 20000) 'c')));
            if Sim.Rng.bool rng then ok (Kernel.Os.fsync os fd);
            ok (Kernel.Os.close os fd)
          done;
          Device.Ssd.crash ~survive:(Sim.Rng.float rng) ~rng (Kernel.Machine.disk machine);
          let vfs2, h2 = ok (Bento.Bentofs.mount ~background:false machine xv6) in
          Bento.Bentofs.unmount vfs2 h2;
          ignore (vfs, h));
      Kernel.Machine.run machine;
      let r = Xv6fs.Fsck.check_device (Kernel.Machine.disk machine) in
      if Xv6fs.Fsck.ok r then
        Printf.printf "trial %2d: consistent (%d files, %d dirs, %d blocks)\n"
          t r.Xv6fs.Fsck.files r.Xv6fs.Fsck.directories r.Xv6fs.Fsck.used_blocks
      else begin
        incr failures;
        Printf.printf "trial %2d: INCONSISTENT\n" t;
        List.iter (fun e -> Printf.printf "    %s\n" e) r.Xv6fs.Fsck.errors
      end
    done;
    Printf.printf "%d/%d trials consistent after crash + recovery\n"
      (trials - !failures) trials;
    if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "crashtest" ~doc:"Crash-inject the Bento xv6 file system and fsck the result")
    Term.(const run $ trials $ seed)

(* ------------------------------------------------------------------ *)

let inspect_cmd =
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the inspector JSON to $(docv) instead of stdout")
  in
  let flight_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight" ] ~docv:"FILE"
          ~doc:"Write the flight-recorder ring dump to $(docv) instead of \
                stdout")
  in
  let run k json_path flight_path =
    let ok_r = function
      | Ok v -> v
      | Error e -> failwith ("inspect: " ^ Kernel.Errno.to_string e)
    in
    let captured = ref Util.Json.Null in
    let machine =
      with_stack k (fun machine os ->
        (* local load so the bcache/log/journal probes have state *)
        ok (Kernel.Os.mkdir os "/smoke");
        for i = 0 to 19 do
          ok
            (Kernel.Os.write_file os
               (Printf.sprintf "/smoke/f%02d" i)
               (Bytes.make 16384 'x'))
        done;
        ok (Kernel.Os.sync os);
        (* a registered pushdown program with traffic so the pushdown
           table shows live rows at snapshot time *)
        let reg = Kernel.Pushdown.registry machine in
        let cap = Kernel.Pushdown.grant reg ~client:"cli" in
        (match
           Kernel.Pushdown.register reg ~cap ~name:"smoke-filter"
             (Kernel.Pushdown.Dir_filter { contains = "f0" })
         with
        | Ok () -> ()
        | Error e ->
            failwith ("pushdown register: " ^ Kernel.Errno.to_string e));
        ignore (ok (Kernel.Os.readdir_filtered os "/smoke" ~prog:"smoke-filter"));
        (* a live multi-tenant server so the lease/qos/slo/session probes
           show real entries at snapshot time *)
        let server =
          Server.Fileserver.start machine os
            {
              Server.Fileserver.tenants =
                [
                  ("gold", { Server.Qos.weight = 4; max_inflight = 16 });
                  ("bronze", { Server.Qos.weight = 1; max_inflight = 8 });
                ];
              max_inflight_total = 32;
            }
        in
        let listener = Server.Fileserver.listener server in
        let drive tenant =
          let cl = ok_r (Server.Client.attach machine listener ~tenant) in
          let root = (Server.Client.root cl).Server.Proto.ino in
          for i = 0 to 9 do
            let a =
              ok_r
                (Server.Client.create cl ~dir:root
                   ~name:(Printf.sprintf "%s%02d" tenant i)
                   ~write:true)
            in
            ignore
              (ok_r
                 (Server.Client.write cl a.Server.Proto.ino ~off:0
                    (Bytes.make 4096 'i')));
            ok_r (Server.Client.commit cl a.Server.Proto.ino)
          done;
          cl
        in
        let gold = drive "gold" in
        let bronze = drive "bronze" in
        (* snapshot while the sessions still hold their write leases *)
        captured := Kernel.Machine.inspect machine;
        Server.Client.detach gold;
        Server.Client.detach bronze;
        Server.Fileserver.stop server)
    in
    let emit path content what =
      match path with
      | None -> print_string content
      | Some p ->
          let oc = open_out p in
          output_string oc content;
          close_out oc;
          Printf.eprintf "wrote %s to %s\n%!" what p
    in
    emit json_path (Util.Json.to_string !captured ^ "\n") "inspector JSON";
    emit flight_path
      (Sim.Flight.render
         (Kernel.Machine.flight machine)
         ~reason:"bento_cli inspect" ~req:0L)
      "flight ring"
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "Bring up a stack plus the multi-tenant server, run a smoke \
          workload, and dump the live internal-state inspectors (bcache \
          residency, CAS page table, lease table, WFQ depths, journal \
          state, SLO windows) and the flight-recorder ring")
    Term.(const run $ stack_arg $ json_out $ flight_out)

(* ------------------------------------------------------------------ *)

let bugstudy_cmd =
  let run () = Format.printf "%a" Bugstudy.Study.pp_table1 () in
  Cmd.v (Cmd.info "bugstudy" ~doc:"Print the Table 1 bug study") Term.(const run $ const ())

(* ------------------------------------------------------------------ *)

let check_cmd =
  let env_seed () =
    match Sys.getenv_opt "BENTO_SEED" with
    | Some s -> ( match int_of_string_opt s with Some n -> Some n | None -> None)
    | None -> None
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ]
          ~doc:"Workload seed (default: \\$BENTO_SEED if set, else 42)")
  in
  let ops = Arg.(value & opt int 500 & info [ "ops" ] ~doc:"Operations per workload") in
  let points =
    Arg.(
      value
      & opt string "sample"
      & info [ "crash-points" ]
          ~doc:"all | sample | none — which crash points to replay")
  in
  let sample =
    Arg.(value & opt int 32 & info [ "sample" ] ~doc:"Crash points in sample mode")
  in
  let fs =
    Arg.(
      value
      & opt string "all"
      & info [ "fs" ]
          ~doc:(stack_names ^ "|all — stacks to check; all is the crash-clean bento|fuse|ext4"))
  in
  let inject =
    Arg.(
      value & flag
      & info [ "inject-bug" ]
          ~doc:
            "Deliberately corrupt the log/journal header before every \
             recovery replay; the checker must then report counterexamples \
             (self-test)")
  in
  let dump =
    Arg.(
      value & flag
      & info [ "dump-trace" ]
          ~doc:"Print the generated op trace (with indices) and exit")
  in
  let server_sessions =
    Arg.(
      value & opt int 0
      & info [ "server-sessions" ]
          ~doc:
            "Also crash the stack under the multi-tenant file server with N \
             client sessions holding dirty write-lease caches mid-commit, \
             and verify every replay against the per-session oracle \
             (0 = skip; xv6 stack)")
  in
  let run seed ops points sample fs inject dump server_sessions =
    let seed =
      match seed with
      | Some s -> s
      | None -> ( match env_seed () with Some s -> s | None -> 42)
    in
    if dump then begin
      let trace = Check.Workload.generate ~seed ~ops () in
      Array.iteri
        (fun i op ->
          Printf.printf "op %4d: %s%s\n" i
            (Check.Model.op_to_string op)
            (match trace.Check.Workload.expected.(i) with
            | Check.Model.Ok_unit -> ""
            | o -> "  => " ^ Check.Model.outcome_to_string o))
        trace.Check.Workload.ops;
      exit 0
    end;
    let stacks =
      match (fs, Stacks.of_string fs) with
      | "all", _ -> Check.Checker.crash_clean
      | _, Some k -> [ k ]
      | _, None ->
          prerr_endline ("unknown --fs: " ^ fs ^ " (want " ^ stack_names ^ "|all)");
          exit 2
    in
    let mode =
      match points with
      | "all" -> Some Check.Checker.All
      | "sample" -> Some (Check.Checker.Sample sample)
      | "none" -> None
      | s ->
          prerr_endline ("unknown --crash-points: " ^ s ^ " (want all|sample|none)");
          exit 2
    in
    let report =
      Check.Checker.run ~inject_bug:inject ~mode ~seed ~ops ~stacks ()
    in
    Format.printf "%a@?" Check.Checker.pp_report report;
    let server_ok =
      if server_sessions <= 0 then true
      else begin
        let r = Check.Server_crash.run ~sessions:server_sessions ~seed () in
        Format.printf "%a@?" Check.Server_crash.pp_report r;
        Check.Server_crash.report_ok r
      end
    in
    if not (Check.Checker.report_ok report && server_ok) then begin
      Printf.printf
        "FAIL: reproduce with: bento_cli check --seed %d --ops %d --fs %s --crash-points %s --server-sessions %d\n"
        seed ops fs points server_sessions;
      exit 1
    end
    else Printf.printf "OK: no oracle violations, no divergences (seed %d)\n" seed
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Crash-consistency and differential checker: one seeded workload, \
          every stack, every crash point")
    Term.(
      const run $ seed $ ops $ points $ sample $ fs $ inject $ dump
      $ server_sessions)

(* ------------------------------------------------------------------ *)

let benchdiff_cmd =
  let old_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"OLD" ~doc:"Baseline $(b,bench --json) document")
  in
  let new_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"NEW" ~doc:"New $(b,bench --json) document")
  in
  let tol =
    Arg.(
      value & opt string "5%"
      & info [ "tolerance" ]
          ~doc:"Allowed relative regression per gated metric, e.g. 5% or 0.05")
  in
  let run old_path new_path tol =
    let read_file p =
      let ic = open_in_bin p in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    in
    (* exit codes: 0 no regression, 1 regression, 2 bad input/usage,
       3 incomparable run metadata *)
    let fail code msg =
      prerr_endline ("bench-diff: " ^ msg);
      exit code
    in
    let tolerance =
      match Workloads.Bench_diff.parse_tolerance tol with
      | Ok t -> t
      | Error m -> fail 2 m
    in
    let load p =
      match Workloads.Bench_diff.doc_of_string (read_file p) with
      | Ok d -> d
      | Error e -> fail 2 (p ^ ": " ^ Workloads.Bench_diff.error_to_string e)
    in
    let old_doc = load old_path in
    let new_doc = load new_path in
    match Workloads.Bench_diff.diff ~tolerance old_doc new_doc with
    | Error (Workloads.Bench_diff.Incomparable _ as e) ->
        fail 3 (Workloads.Bench_diff.error_to_string e)
    | Error e -> fail 2 (Workloads.Bench_diff.error_to_string e)
    | Ok report ->
        print_string (Workloads.Bench_diff.render ~tolerance report);
        if report.Workloads.Bench_diff.regressions > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two bench --json runs and fail on throughput/latency \
          regressions beyond a tolerance")
    Term.(const run $ old_arg $ new_arg $ tol)

let () =
  let doc = "Bento: high-velocity kernel file systems (simulated reproduction)" in
  let info = Cmd.info "bento_cli" ~doc in
  let code =
    Cmd.eval
      (Cmd.group info
         [
           layout_cmd; smoke_cmd; crashtest_cmd; inspect_cmd; bugstudy_cmd;
           check_cmd; benchdiff_cmd;
         ])
  in
  (* usage errors exit 2, like bench-diff's bad input *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
