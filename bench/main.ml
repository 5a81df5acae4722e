(** The benchmark harness: regenerates every table and figure of the Bento
    paper's evaluation (see DESIGN.md's experiment index), plus ablations
    and an online-upgrade measurement, on the simulated machine.

      main.exe               — run everything (same as main.exe all)
      main.exe fig2|fig3|fig4|table1..table6|readahead|scaling|server|coldstart|ablate|upgrade|pushdown
      main.exe scaling --scaling-fibers 1,8,32 — throughput vs fiber count
      main.exe server --server-clients 10,100,1000 — multi-tenant file server
      main.exe coldstart --coldstart-tenants 10,100,1000 — CAS tenant trees
      main.exe bechamel      — wall-clock microbenchmarks of hot structures
      main.exe all --duration 2.0 --untar-files 70000
      main.exe fig2 --json out.json     — machine-readable results
      main.exe fig2 --trace out.trace.json — Chrome/Perfetto trace of the runs
      main.exe fig2 --profile           — per-layer virtual-time attribution
      main.exe fig2 --folded out.folded — flamegraph collapsed stacks

    Absolute numbers come from the calibrated cost model (EXPERIMENTS.md);
    the shapes — who wins and by how much — are the reproduction target. *)

let duration = ref 0.5 (* virtual seconds per timed run *)
let untar_files = ref 14_000
(* paper-scale parameters: --duration 60 --untar-files 70000; the defaults
   are chosen so the full suite runs in ~15-20 minutes of real time while
   the measured rates are already stable (they change by only a few percent
   between 0.25 s and 1 s windows) *)
let seed = ref 42
let json_path : string option ref = ref None
let trace_path : string option ref = ref None
let profile = ref false
let folded_path : string option ref = ref None

let dur () = Sim.Time.of_float_ns (!duration *. 1e9)

let pf = Printf.printf
let spf = Printf.sprintf

let header title =
  pf "\n=== %s ===\n%!" title

(* ------------------------------------------------------------------ *)
(* Machine-readable output (--json / --trace).                          *)

let results : Util.Json.t list ref = ref [] (* newest first *)

(* One JSON row per measured run: identity, throughput, and the per-op
   latency percentiles from the workload's histogram. Also relabels the
   run's trace observation so Perfetto shows "<section>:<config>:<system>"
   as the process name. *)
let record ~section ~system ~config (r : Workloads.Bench_result.t) =
  if !Targets.observe then begin
    let sysname = Targets.system_name system in
    Targets.relabel_last (Printf.sprintf "%s:%s:%s" section config sysname);
    let open Util.Json in
    let pct q =
      match Workloads.Bench_result.lat_percentile r q with
      | Some v -> int64 v
      | None -> Null
    in
    let lat_max =
      match r.lat with
      | Some h when Sim.Stats.Histogram.count h > 0 ->
          int64 (Sim.Stats.Histogram.max_ns h)
      | _ -> Null
    in
    let counters_list = Targets.last_counters () in
    let counters = List.map (fun (k, v) -> (k, int64 v)) counters_list in
    (* Paper-style explanatory ratios derived from the counter snapshot.
       Counters cover the whole run (setup included), so the ratios are
       stable explanations rather than pure steady-state figures; the
       denominators are the timed window's ops/bytes. Null when the
       denominator is zero. *)
    let c name =
      Option.value ~default:0L (List.assoc_opt name counters_list)
    in
    let fdiv num den = if den = 0. then Null else Float (num /. den) in
    let crossings_per_op =
      fdiv
        (Int64.to_float
           (Int64.add (c "machine.syscalls") (c "machine.fuse_crossings")))
        (float_of_int r.ops)
    in
    let write_amplification =
      fdiv
        (Int64.to_float (c "ssd.blocks_written") *. 4096.)
        (float_of_int r.bytes)
    in
    let bcache_hit_ratio =
      let h = Int64.to_float (c "bcache.hits") in
      let m = Int64.to_float (c "bcache.misses") in
      fdiv h (h +. m)
    in
    let log_commits = c "machine.log_commits" in
    let log_commit_mean_blocks =
      fdiv
        (Int64.to_float (c "machine.log_commit_blocks"))
        (Int64.to_float log_commits)
    in
    (* fraction of CAS page faults served by an already-resident shared
       page; Null (so ungated) on runs without a CAS store *)
    let cas_shared_ratio =
      let h = Int64.to_float (c "machine.cas_hits") in
      let f = Int64.to_float (c "machine.cas_fills") in
      fdiv h (h +. f)
    in
    let profile_json =
      match Targets.last_profile () with
      | None -> Null
      | Some p ->
          Obj
            [
              ("elapsed_ns", int64 (Sim.Profile.elapsed p));
              ("attributed_ns", int64 (Sim.Profile.attributed p));
              ( "layers",
                Obj
                  (List.map
                     (fun (lt : Sim.Profile.layer_time) ->
                       ( lt.layer,
                         Obj
                           [
                             ("self_ns", int64 lt.self_ns);
                             ("total_ns", int64 lt.total_ns);
                           ] ))
                     (Sim.Profile.summary p)) );
              (* time fibers spent blocked per "<layer>/<lock>"; overlaps
                 the self times above, so it is reported separately *)
              ( "lock_waits",
                Obj
                  (List.map
                     (fun (k, ns) -> (k, int64 ns))
                     (Sim.Profile.lock_waits p)) );
            ]
    in
    let row =
      Obj
        [
          ("section", String section);
          ("system", String sysname);
          ("config", String config);
          ("label", String r.label);
          ("ops", Int r.ops);
          ("bytes", Int r.bytes);
          ("elapsed_ns", int64 r.elapsed_ns);
          ("ops_per_sec", Float (Workloads.Bench_result.ops_per_sec r));
          ("mbps", Float (Workloads.Bench_result.mbps r));
          ("lat_p50_ns", pct 50.0);
          ("lat_p90_ns", pct 90.0);
          ("lat_p99_ns", pct 99.0);
          ("lat_max_ns", lat_max);
          ("crossings_per_op", crossings_per_op);
          ("write_amplification", write_amplification);
          ("bcache_hit_ratio", bcache_hit_ratio);
          ("log_commits", int64 log_commits);
          ("log_commit_mean_blocks", log_commit_mean_blocks);
          ("cas_shared_ratio", cas_shared_ratio);
          ("counters", Obj counters);
          ("profile", profile_json);
        ]
    in
    results := row :: !results
  end

(* ------------------------------------------------------------------ *)
(* Tables 1-3: the bug study and qualitative comparisons.               *)

let table1 () =
  header "Table 1: Linux extension bug study (AppArmor, OVS datapath, OverlayFS)";
  Format.printf "%a%!" Bugstudy.Study.pp_table1 ()

let table2 () =
  header "Table 2: file system extensibility mechanisms";
  Format.printf "%a%!" Bugstudy.Comparison.pp_table2 ()

let table3 () =
  header "Table 3: challenges and solutions";
  Format.printf "%a%!" Bugstudy.Comparison.pp_table3 ()

(* ------------------------------------------------------------------ *)
(* Figure 2/3: reads.                                                   *)

let read_configs = [ ("seq", Workloads.Micro.Seq, 1); ("seq", Workloads.Micro.Seq, 32);
                     ("rnd", Workloads.Micro.Rnd, 1); ("rnd", Workloads.Micro.Rnd, 32) ]

let run_read system ~iosize ~pattern ~nthreads =
  Targets.run system (fun os ->
      Workloads.Micro.read_bench os ~iosize ~pattern ~nthreads
        ~duration:(dur ()) ~file_mb:128 ~seed:!seed)

(* A systems x configs table: a header row of system names, then one row
   per element of [rows], whose cells [cell row sys] measure (and record)
   one run each and return the formatted value. *)
let grid ?(width = 10) ?(colw = 12) ?(systems = Targets.all_xv6) ~corner
    ~label ~cell rows =
  pf "%-*s" width corner;
  List.iter (fun s -> pf "%*s" colw (Targets.system_name s)) systems;
  pf "\n";
  List.iter
    (fun row ->
      pf "%-*s" width (label row);
      List.iter (fun sys -> pf "%*s" colw (cell row sys)) systems;
      pf "\n%!")
    rows

let config_label (pname, _, nthreads) = spf "%s-%dt" pname nthreads

let fig2 () =
  header "Figure 2: Read performance (4KB), ops/sec (x1000)";
  grid ~corner:"config" ~label:config_label read_configs
    ~cell:(fun (pname, pattern, nthreads) sys ->
      let r = run_read sys ~iosize:4096 ~pattern ~nthreads in
      record ~section:"fig2" ~system:sys
        ~config:(spf "read-%s-4k-%dt" pname nthreads) r;
      spf "%.1f" (Workloads.Bench_result.ops_per_sec r /. 1000.))

let fig3 () =
  header "Figure 3: Read performance (32KB-1024KB), MBps (x1000)";
  List.iter
    (fun iosize ->
      pf "-- reads (%dKB) --\n" (iosize / 1024);
      grid ~corner:"config" ~label:config_label read_configs
        ~cell:(fun (pname, pattern, nthreads) sys ->
          let r = run_read sys ~iosize ~pattern ~nthreads in
          record ~section:"fig3" ~system:sys
            ~config:(spf "read-%s-%dk-%dt" pname (iosize / 1024) nthreads)
            r;
          spf "%.2f" (Workloads.Bench_result.mbps r /. 1000.)))
    [ 32 * 1024; 128 * 1024; 1024 * 1024 ]

(* ------------------------------------------------------------------ *)
(* Figure 4: writes.                                                    *)

let write_configs =
  [ ("seq", Workloads.Micro.Seq, 1); ("rnd", Workloads.Micro.Rnd, 1);
    ("rnd", Workloads.Micro.Rnd, 32) ]

let fig4 () =
  header "Figure 4: Write performance, MBps";
  List.iter
    (fun iosize ->
      pf "-- writes (%dKB) --\n" (iosize / 1024);
      grid ~corner:"config" ~label:config_label write_configs
        ~cell:(fun (pname, pattern, nthreads) sys ->
          let r =
            Targets.run sys (fun os ->
                Workloads.Micro.write_bench os ~iosize ~pattern ~nthreads
                  ~duration:(dur ()) ~file_mb:256 ~seed:!seed)
          in
          record ~section:"fig4" ~system:sys
            ~config:(spf "write-%s-%dk-%dt" pname (iosize / 1024) nthreads)
            r;
          spf "%.1f" (Workloads.Bench_result.mbps r)))
    [ 32 * 1024; 128 * 1024; 1024 * 1024 ]

(* ------------------------------------------------------------------ *)
(* Table 4/5: create / delete.                                          *)

let threads_table ~section ~op bench =
  grid ~corner:"threads" ~label:string_of_int [ 1; 32 ]
    ~cell:(fun nthreads sys ->
      let r = Targets.run sys (bench ~nthreads sys) in
      record ~section ~system:sys ~config:(spf "%s-%dt" op nthreads) r;
      spf "%.0f" (Workloads.Bench_result.ops_per_sec r))

let table4 () =
  header "Table 4: Create microbenchmark (ops/sec)";
  threads_table ~section:"table4" ~op:"create" (fun ~nthreads _ os ->
      Workloads.Micro.create_bench os ~nthreads ~duration:(dur ())
        ~dirwidth:100 ~mean_size:16384 ~seed:!seed)

let table5 () =
  header "Table 5: Delete microbenchmark (ops/sec)";
  threads_table ~section:"table5" ~op:"delete" (fun ~nthreads sys os ->
      (* size the fileset so it outlasts the timed window *)
      let precreate = match sys with Stacks.Fuse -> 2_000 | _ -> 40_000 in
      Workloads.Micro.delete_bench os ~nthreads ~duration:(dur ())
        ~dirwidth:100 ~precreate ~seed:!seed)

(* ------------------------------------------------------------------ *)
(* Table 6: macrobenchmarks.                                            *)

let table6 () =
  header "Table 6: Macrobenchmark performance";
  pf "%-12s %12s %12s %12s\n" "system" "varmail" "fileserver" "untar(s)";
  List.iter
    (fun sys ->
      let vm =
        Targets.run sys (fun os ->
            Workloads.Macro.varmail os ~duration:(dur ()) ~seed:!seed ())
      in
      record ~section:"table6" ~system:sys ~config:"varmail" vm;
      let fsv =
        Targets.run sys (fun os ->
            Workloads.Macro.fileserver os ~duration:(dur ()) ~seed:!seed ())
      in
      record ~section:"table6" ~system:sys ~config:"fileserver" fsv;
      let untar_manifest =
        Workloads.Macro.linux_tree_manifest
          ~nfiles:(match sys with Stacks.Fuse -> !untar_files / 10 | _ -> !untar_files)
          ~ndirs:(match sys with Stacks.Fuse -> 420 | _ -> 4200)
          ~seed:!seed ()
      in
      let ut =
        Targets.run ~disk_blocks:(3 * 1024 * 1024) sys (fun os ->
            Workloads.Macro.untar os untar_manifest)
      in
      record ~section:"table6" ~system:sys ~config:"untar" ut;
      let scale = match sys with Stacks.Fuse -> 10. | _ -> 1. in
      pf "%-12s %12.0f %12.0f %12.1f\n%!" (Targets.system_name sys)
        (Workloads.Bench_result.ops_per_sec vm)
        (Workloads.Bench_result.ops_per_sec fsv)
        (Workloads.Bench_result.elapsed_sec ut *. scale))
    Stacks.all;
  pf "(FUSE untar runs a 1/10-size tree; the reported seconds are scaled x10)\n"

(* ------------------------------------------------------------------ *)
(* Seqread-cold + readahead ablation: the async bio/readahead path.     *)

let seqread_cold_mb = 96 (* > any stack's caches, so the read is cold *)

let readahead_section () =
  header
    (Printf.sprintf
       "Seqread-cold: cold page cache, sequential 4KB reads of a %dMB file \
        (MBps)"
       seqread_cold_mb);
  let bento_on = ref None in
  grid ~width:14 ~systems:Stacks.all ~corner:"config" ~label:Fun.id
    [ "seqread-cold" ] ~cell:(fun _ sys ->
      let r =
        Targets.run sys (fun os ->
            Workloads.Micro.seqread_cold_bench os ~iosize:4096
              ~file_mb:seqread_cold_mb)
      in
      record ~section:"readahead" ~system:sys ~config:"seqread-cold-4k" r;
      if sys = Stacks.Bento then bento_on := Some r;
      spf "%.1f" (Workloads.Bench_result.mbps r));
  header "Ablation: page-cache readahead on vs off (Bento, same workload)";
  let off =
    Targets.run Stacks.Bento (fun os ->
        Kernel.Vfs.set_readahead (Kernel.Os.vfs os) false;
        Workloads.Micro.seqread_cold_bench os ~iosize:4096
          ~file_mb:seqread_cold_mb)
  in
  record ~section:"readahead" ~system:Stacks.Bento
    ~config:"seqread-cold-4k-ra-off" off;
  let on = Option.get !bento_on in
  pf "seqread-cold on Bento: readahead %.1f MBps  no-readahead %.1f MBps  \
      speedup %.2fx\n%!"
    (Workloads.Bench_result.mbps on)
    (Workloads.Bench_result.mbps off)
    (Workloads.Bench_result.mbps on /. Workloads.Bench_result.mbps off)

(* ------------------------------------------------------------------ *)
(* Scaling: aggregate throughput vs workload fibers, plus lock-wait
   attribution — the many-core scaling probe for the sharded caches and
   group-commit logs.                                                   *)

let scaling_fibers = ref [ 1; 4; 8; 32; 128 ]

(* A synthetic result row carrying one derived metric (the
   scaling-efficiency ratio), so bench-diff gates on it like any measured
   metric. *)
let record_scalar ~section ~system ~config ~metric v =
  if !Targets.observe then
    let open Util.Json in
    results :=
      Obj
        [
          ("section", String section);
          ("system", String (Targets.system_name system));
          ("config", String config);
          (metric, Float v);
        ]
      :: !results

let scaling () =
  (* lock-wait attribution is the point of this section: profiling (and
     row capture) is forced on for its runs even without --profile *)
  let saved_observe = !Targets.observe in
  let saved_profile = !Targets.profile_enabled in
  Targets.observe := true;
  Targets.profile_enabled := true;
  let fibers = List.sort_uniq compare !scaling_fibers in
  let nmax = List.fold_left max 1 fibers in
  (* profiles of the largest-fiber-count runs, for the lock-wait tables *)
  let hot : (string * Sim.Profile.t) list ref = ref [] in
  let note_hot ~config sys n =
    if n = nmax then
      match Targets.last_profile () with
      | Some p ->
          hot :=
            (Printf.sprintf "scaling:%s:%s" config (Targets.system_name sys), p)
            :: !hot
      | None -> ()
  in
  (* one fibers x systems table; each cell also records its scaling
     efficiency against the same system's smallest fiber count *)
  let sweep ~systems ~config ~eff ~fmt measure =
    let base = Hashtbl.create 8 in
    grid ~systems ~corner:"fibers" ~label:string_of_int fibers
      ~cell:(fun n sys ->
        let r = Targets.run sys (measure n) in
        record ~section:"scaling" ~system:sys ~config:(config n) r;
        note_hot ~config:(config n) sys n;
        let tput = Workloads.Bench_result.ops_per_sec r in
        (match Hashtbl.find_opt base sys with
        | None -> Hashtbl.add base sys tput
        | Some b ->
            if b > 0. then
              record_scalar ~section:"scaling" ~system:sys ~config:(eff n)
                ~metric:"scaling_efficiency" (tput /. b));
        fmt tput)
  in
  header "Scaling: aggregate throughput vs workload fibers (8-core machine)";
  (* per-fiber private-file read micros: no shared fileset entry, so the
     stack's own locks are the only serialisation *)
  List.iter
    (fun (pname, pattern) ->
      pf "-- scale-read-%s-4k: private warm file per fiber, ops/sec (x1000) --\n"
        pname;
      sweep ~systems:Targets.all_xv6
        ~config:(spf "scale-read-%s-4k-%dt" pname)
        ~eff:(spf "scale-read-%s-4k-eff%dt" pname)
        ~fmt:(fun tput -> spf "%.1f" (tput /. 1000.))
        (fun n os ->
          Workloads.Micro.scaling_read_bench os ~iosize:4096 ~pattern
            ~nthreads:n ~duration:(dur ()) ~file_mb:2 ~seed:!seed))
    [ ("seq", Workloads.Micro.Seq); ("rnd", Workloads.Micro.Rnd) ];
  (* varmail with N threads on the journalled stacks: fsync-heavy, so the
     log's group commit is what scales (or does not) *)
  pf "-- varmail with N threads, ops/sec --\n";
  sweep ~systems:Stacks.[ Bento; Ckernel; Ext4 ] ~config:(spf "varmail-%dt")
    ~eff:(spf "varmail-eff%dt") ~fmt:(spf "%.0f") (fun n os ->
      let vc =
        { Workloads.Macro.varmail_default with Workloads.Macro.vm_nthreads = n }
      in
      Workloads.Macro.varmail os ~duration:(dur ()) ~config:vc ~seed:!seed ());
  header
    (Printf.sprintf "Scaling: lock-wait attribution at %d fibers" nmax);
  List.iter
    (fun (label, p) -> Targets.print_lock_waits ~label p)
    (List.rev !hot);
  Targets.observe := saved_observe;
  Targets.profile_enabled := saved_profile

(* ------------------------------------------------------------------ *)
(* Server: the multi-tenant file server. Client fleets split across QoS
   classes (gold weight 4 / bronze weight 1) drive the wire protocol;
   the rows that matter are per tenant class — throughput and p99 at
   10/100/1000 concurrent client sessions.                              *)

let server_clients = ref [ 10; 100; 1000 ]

(* Per-tenant SLO monitor summaries of one fleet run: printed, and exported
   as gated synthetic rows (slo_p99_ms, slo_breaches) so bench-diff flags a
   tenant class losing its latency objective. *)
let slo_report ~prefix (summaries : Server.Slo.summary list) =
  List.iter
    (fun (s : Server.Slo.summary) ->
      pf
        "  slo %-8s target %4.0fms  window p50 %7.2fms p99 %7.2fms  %8.0f \
         ops/s  over-target %Ld  breaches %Ld\n%!"
        s.s_tenant
        (Int64.to_float s.s_target_ns /. 1e6)
        (Int64.to_float s.s_p50_ns /. 1e6)
        (Int64.to_float s.s_p99_ns /. 1e6)
        s.s_throughput s.s_over_target s.s_breaches;
      record_scalar ~section:"server" ~system:Stacks.Bento
        ~config:(Printf.sprintf "%s-%s-slo-p99" prefix s.s_tenant)
        ~metric:"slo_p99_ms"
        (Int64.to_float s.s_p99_ns /. 1e6);
      record_scalar ~section:"server" ~system:Stacks.Bento
        ~config:(Printf.sprintf "%s-%s-slo-breaches" prefix s.s_tenant)
        ~metric:"slo_breaches"
        (Int64.to_float s.s_breaches))
    summaries

(* Causal-DAG reconstruction of a traced run: the tentpole's acceptance
   check. Every request observed in the trace must stitch into one
   connected DAG of spans and flow edges — orphan completions or split
   components mean a broken propagation hop. *)
let causal_report ?(system = Stacks.Bento) ~section ~config () =
  if !Targets.trace_enabled then
    match Targets.last_tracer () with
    | None -> ()
    | Some tr ->
        let evs = Sim.Trace.events tr in
        let reqs = Sim.Trace.Causal.requests evs in
        let ratio = Sim.Trace.Causal.connected_ratio evs in
        pf "  causal: %d requests traced, %.4f reconstructed as connected \
            DAGs%s\n%!"
          (List.length reqs) ratio
          (if Sim.Trace.dropped tr > 0 then
             Printf.sprintf " (ring dropped %d events)" (Sim.Trace.dropped tr)
           else "");
        record_scalar ~section ~system ~config:(config ^ "-causal")
          ~metric:"causal_connected_ratio" ratio

let server_section () =
  header "Server: multi-tenant fleets, per-tenant-class throughput and p99";
  let counts = List.sort_uniq compare !server_clients in
  let show config (r : Workloads.Bench_result.t) =
    let p q =
      match Workloads.Bench_result.lat_percentile r q with
      | Some v -> Int64.to_float v /. 1e3
      | None -> 0.
    in
    pf "%-18s %10d %12.0f %10.1f %12.1f %12.1f\n%!" config r.ops
      (Workloads.Bench_result.ops_per_sec r)
      (Workloads.Bench_result.mbps r) (p 50.) (p 99.)
  in
  pf "%-18s %10s %12s %10s %12s %12s\n" "config" "ops" "ops/s" "MB/s"
    "p50us" "p99us";
  List.iter
    (fun n ->
      let slo_out = ref [] in
      let rs =
        Targets.run Stacks.Bento (fun os ->
            Workloads.Server_fleet.webserver_fleet os ~slo_out ~nclients:n
              ~duration:(dur ()) ~seed:!seed ())
      in
      List.iter
        (fun (tenant, r) ->
          let config = Printf.sprintf "web-%dc-%s" n tenant in
          record ~section:"server" ~system:Stacks.Bento ~config r;
          show config r)
        rs;
      slo_report ~prefix:(Printf.sprintf "web-%dc" n) !slo_out;
      causal_report ~section:"server" ~config:(Printf.sprintf "web-%dc" n) ())
    counts;
  let ci_clients = 40 in
  let slo_out = ref [] in
  let rs =
    Targets.run Stacks.Bento (fun os ->
        Workloads.Server_fleet.ci_fleet os ~slo_out ~nclients:ci_clients
          ~duration:(dur ()) ~seed:!seed ())
  in
  List.iter
    (fun (tenant, r) ->
      let config = Printf.sprintf "ci-%dc-%s" ci_clients tenant in
      record ~section:"server" ~system:Stacks.Bento ~config r;
      show config r)
    rs;
  slo_report ~prefix:(Printf.sprintf "ci-%dc" ci_clients) !slo_out;
  causal_report ~section:"server" ~config:(Printf.sprintf "ci-%dc" ci_clients)
    ()

(* ------------------------------------------------------------------ *)
(* Coldstart: one sealed Linux-source-style manifest instantiated as N
   tenant trees. The CAS arms (Bento and FUSE) share pages across all
   tenants — warm open+read should show zero device reads on Bento and
   a crossings_per_op gap on FUSE — while the naive arm writes N private
   copies, the device-blocks baseline.                                  *)

let coldstart_tenants = ref [ 10; 100; 1000 ]

(* a ~100-file tree keeps 1000 tenants inside the inode table of the
   4M-block disk below *)
let coldstart_nfiles = 100
let coldstart_ndirs = 12

let coldstart_section () =
  header "Coldstart: N tenant trees from one sealed manifest";
  let counts = List.sort_uniq compare !coldstart_tenants in
  (* big disk for the naive copies, a 1 GiB CAS region, and a page cap
     high enough that tenant aliases are never reclaimed mid-measure *)
  let disk_blocks = 4 * 1024 * 1024 in
  let page_cap = 2_000_000 in
  let cas_blocks = 256 * 1024 in
  pf "%-22s %10s %12s %10s %12s %12s %10s\n" "config" "ops" "opens/s"
    "p99us" "dev_reads" "dev_blocks" "respages";
  let arms = [ ("cas", Stacks.Bento); ("cas", Stacks.Fuse);
               ("naive", Stacks.Bento) ] in
  List.iter
    (fun n ->
      List.iter
        (fun (mode, sys) ->
          let f os =
            match mode with
            | "cas" ->
                Workloads.Coldstart.cas_run os ~tenants:n
                  ~nfiles:coldstart_nfiles ~ndirs:coldstart_ndirs ~seed:!seed
            | _ ->
                Workloads.Coldstart.naive_run os ~tenants:n
                  ~nfiles:coldstart_nfiles ~ndirs:coldstart_ndirs ~seed:!seed
          in
          let r =
            if mode = "cas" then
              Targets.run ~disk_blocks ~page_cap ~cas_blocks sys f
            else Targets.run ~disk_blocks ~page_cap sys f
          in
          let config = Printf.sprintf "coldstart-%s-%dt" mode n in
          record ~section:"coldstart" ~system:sys ~config
            r.Workloads.Coldstart.r_sweep;
          record_scalar ~section:"coldstart" ~system:sys
            ~config:(config ^ "-devreads") ~metric:"warm_device_reads"
            (float_of_int r.Workloads.Coldstart.r_warm_device_reads);
          record_scalar ~section:"coldstart" ~system:sys
            ~config:(config ^ "-blocks") ~metric:"device_blocks"
            (float_of_int r.Workloads.Coldstart.r_device_blocks);
          let sweep = r.Workloads.Coldstart.r_sweep in
          let p99 =
            match Workloads.Bench_result.lat_percentile sweep 99.0 with
            | Some v -> Int64.to_float v /. 1e3
            | None -> 0.
          in
          pf "%-22s %10d %12.0f %10.1f %12d %12d %10d\n%!"
            (Printf.sprintf "%s:%s" config (Targets.system_name sys))
            sweep.Workloads.Bench_result.ops
            (Workloads.Bench_result.ops_per_sec sweep)
            p99
            r.Workloads.Coldstart.r_warm_device_reads
            r.Workloads.Coldstart.r_device_blocks
            r.Workloads.Coldstart.r_resident_pages;
          causal_report ~system:sys ~section:"coldstart" ~config ())
        arms)
    counts

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out.                   *)

let run_bento_wb_batch ~wb_batch f =
  Stacks.run ~wb_batch Stacks.Bento (Stacks.machine ()) f

let ablate () =
  header
    "Ablation: writepages batching in BentoFS itself (same fs, wb_batch 256 vs 1)";
  let manifest = Workloads.Macro.linux_tree_manifest ~nfiles:(!untar_files / 4) ~ndirs:1050 ~seed:!seed () in
  let batched =
    run_bento_wb_batch ~wb_batch:256 (fun os -> Workloads.Macro.untar os manifest)
  in
  let unbatched =
    run_bento_wb_batch ~wb_batch:1 (fun os -> Workloads.Macro.untar os manifest)
  in
  pf
    "untar %d files on Bento: writepages(256) %.1fs  writepage(1) %.1fs  ratio %.2fx\n%!"
    (List.length manifest.Workloads.Macro.files)
    (Workloads.Bench_result.elapsed_sec batched)
    (Workloads.Bench_result.elapsed_sec unbatched)
    (Workloads.Bench_result.elapsed_sec unbatched
    /. Workloads.Bench_result.elapsed_sec batched);
  header "Ablation: full stacks on untar (Bento vs hand-written C baseline)";
  let bento =
    Targets.run Stacks.Bento (fun os -> Workloads.Macro.untar os manifest)
  in
  record ~section:"ablate" ~system:Stacks.Bento ~config:"untar" bento;
  let ckern =
    Targets.run Stacks.Ckernel (fun os -> Workloads.Macro.untar os manifest)
  in
  record ~section:"ablate" ~system:Stacks.Ckernel ~config:"untar" ckern;
  pf "untar %d files: Bento %.1fs  C-Kernel %.1fs  ratio %.2fx\n%!"
    (List.length manifest.Workloads.Macro.files)
    (Workloads.Bench_result.elapsed_sec bento)
    (Workloads.Bench_result.elapsed_sec ckern)
    (Workloads.Bench_result.elapsed_sec ckern /. Workloads.Bench_result.elapsed_sec bento);
  header "Ablation: user-level block I/O + whole-file fsync (create ops/s)";
  let bento_c =
    Targets.run Stacks.Bento (fun os ->
        Workloads.Micro.create_bench os ~nthreads:1 ~duration:(dur ())
          ~dirwidth:100 ~mean_size:16384 ~seed:!seed)
  in
  record ~section:"ablate" ~system:Stacks.Bento ~config:"create-1t" bento_c;
  let fuse_c =
    Targets.run Stacks.Fuse (fun os ->
        Workloads.Micro.create_bench os ~nthreads:1 ~duration:(dur ())
          ~dirwidth:100 ~mean_size:16384 ~seed:!seed)
  in
  record ~section:"ablate" ~system:Stacks.Fuse ~config:"create-1t" fuse_c;
  pf "create: Bento %.0f/s  FUSE %.0f/s  slowdown %.0fx\n%!"
    (Workloads.Bench_result.ops_per_sec bento_c)
    (Workloads.Bench_result.ops_per_sec fuse_c)
    (Workloads.Bench_result.ops_per_sec bento_c
    /. max 0.001 (Workloads.Bench_result.ops_per_sec fuse_c));
  header "Ablation: journaling strategy (varmail ops/s; xv6 sync log vs jbd2 lazy checkpoint)";
  let vm_x =
    Targets.run Stacks.Bento (fun os ->
        Workloads.Macro.varmail os ~duration:(dur ()) ~seed:!seed ())
  in
  record ~section:"ablate" ~system:Stacks.Bento ~config:"varmail" vm_x;
  let vm_e =
    Targets.run Stacks.Ext4 (fun os ->
        Workloads.Macro.varmail os ~duration:(dur ()) ~seed:!seed ())
  in
  record ~section:"ablate" ~system:Stacks.Ext4 ~config:"varmail" vm_e;
  pf "varmail: xv6-log %.0f/s  jbd2 %.0f/s  ext4 advantage %.2fx\n%!"
    (Workloads.Bench_result.ops_per_sec vm_x)
    (Workloads.Bench_result.ops_per_sec vm_e)
    (Workloads.Bench_result.ops_per_sec vm_e
    /. max 0.001 (Workloads.Bench_result.ops_per_sec vm_x))

(* ------------------------------------------------------------------ *)
(* Online upgrade (§4.8): swap the fs under a running workload.         *)

let upgrade () =
  header "Online upgrade: xv6fs v1 -> v2 under a running workload";
  let machine = Kernel.Machine.create ~disk_blocks:(1024 * 1024) ~block_size:4096 () in
  Kernel.Machine.spawn ~name:"bench" machine (fun () ->
      let ok = Kernel.Errno.ok_exn in
      ok (Bento.Bentofs.mkfs machine Stacks.xv6);
      let vfs, h = ok (Bento.Bentofs.mount machine Stacks.xv6) in
      let os = Kernel.Os.create vfs in
      (* steady workload *)
      let stop = ref false in
      let ops = ref 0 in
      let worker_done = Sim.Sync.Semaphore.create 0 in
      Kernel.Machine.spawn ~name:"load" machine (fun () ->
          let i = ref 0 in
          while not !stop do
            incr i;
            ok
              (Kernel.Os.write_file os
                 (Printf.sprintf "/f%d" (!i mod 100))
                 (Bytes.make 8192 'u'));
            incr ops
          done;
          Sim.Sync.Semaphore.release worker_done);
      Sim.Engine.sleep (Sim.Time.ms 200);
      let before = !ops in
      let report = Bento.Upgrade.upgrade h (module Xv6fs.Xv6fs_v2.Make) in
      Sim.Engine.sleep (Sim.Time.ms 200);
      stop := true;
      Sim.Sync.Semaphore.acquire worker_done;
      pf
        "upgraded v%d -> v%d with %d ops before, %d after; pause %.3f ms; \
         transferred %d open inodes, %d ints\n"
        report.Bento.Upgrade.from_version report.Bento.Upgrade.to_version
        before (!ops - before)
        (Int64.to_float report.Bento.Upgrade.pause_ns /. 1e6)
        report.Bento.Upgrade.transferred_open_inodes
        report.Bento.Upgrade.transferred_ints;
      pf "files written before the upgrade still readable: %b\n%!"
        (match Kernel.Os.read_file os "/f1" with Ok _ -> true | Error _ -> false);
      Bento.Bentofs.unmount vfs h);
  Kernel.Machine.run machine

(* ------------------------------------------------------------------ *)
(* Pushdown: registered kernel-side programs vs plain multi-call paths
   (ISSUE 10). Each cell shows kops/s and the in-window crossings/op
   (syscalls + FUSE wire crossings over timed ops); the scalar rows gate
   the exact crossing counts in bench-diff.                             *)

let pushdown_section () =
  header
    "Pushdown: kernel-side programs vs plain multi-call paths (kops/s, \
     crossings/op)";
  let arms =
    [
      ( "scan-plain",
        fun os ->
          Workloads.Pushdown_bench.filtered_scan os ~pushdown:false
            ~duration:(dur ()) );
      ( "scan-pushdown",
        fun os ->
          Workloads.Pushdown_bench.filtered_scan os ~pushdown:true
            ~duration:(dur ()) );
      ( "walk-plain",
        fun os ->
          Workloads.Pushdown_bench.extent_walk os ~pushdown:false
            ~duration:(dur ()) ~seed:!seed );
      ( "walk-pushdown",
        fun os ->
          Workloads.Pushdown_bench.extent_walk os ~pushdown:true
            ~duration:(dur ()) ~seed:!seed );
      ( "get-pushdown",
        fun os ->
          Workloads.Pushdown_bench.kv_get os ~duration:(dur ()) ~seed:!seed );
    ]
  in
  let cells = Hashtbl.create 32 in
  grid ~width:16 ~colw:22 ~systems:Stacks.all ~corner:"config" ~label:fst arms
    ~cell:(fun (config, f) sys ->
      let r = Targets.run sys f in
      record ~section:"pushdown" ~system:sys ~config
        r.Workloads.Pushdown_bench.br;
      record_scalar ~section:"pushdown" ~system:sys ~config
        ~metric:"crossings_per_op" r.crossings_per_op;
      Hashtbl.replace cells (config, sys) r;
      spf "%13.1fk %7.2f"
        (Workloads.Bench_result.ops_per_sec r.br /. 1e3)
        r.crossings_per_op);
  let cpo config sys =
    (Hashtbl.find cells (config, sys)).Workloads.Pushdown_bench.crossings_per_op
  in
  pf "FUSE filtered scan: %.1f crossings/op plain vs %.1f pushed down \
      (%.1fx fewer)\n"
    (cpo "scan-plain" Stacks.Fuse)
    (cpo "scan-pushdown" Stacks.Fuse)
    (cpo "scan-plain" Stacks.Fuse /. cpo "scan-pushdown" Stacks.Fuse);
  List.iter
    (fun sys ->
      pf "%s extent walk: %.1f crossings/op plain vs %.1f pushed down\n"
        (Targets.system_name sys)
        (cpo "walk-plain" sys) (cpo "walk-pushdown" sys))
    Stacks.all;
  pf "%!"

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock microbenchmarks of the hot data structures.      *)

let bechamel () =
  let open Bechamel in
  let heap_test =
    Test.make ~name:"sim-heap push/pop x1000" (Staged.stage (fun () ->
        let h = Sim.Heap.create () in
        for i = 0 to 999 do
          Sim.Heap.push h ~time:(Int64.of_int (i * 37 mod 997)) ~seq:i i
        done;
        while not (Sim.Heap.is_empty h) do
          ignore (Sim.Heap.pop h)
        done))
  in
  let checksum_test =
    let blocks = List.init 16 (fun i -> Bytes.make 4096 (Char.chr (i + 65))) in
    Test.make ~name:"log checksum 16 blocks" (Staged.stage (fun () ->
        ignore (Xv6fs.Layout.checksum_blocks blocks)))
  in
  let proto_test =
    let req = Fusesim.Proto.Write { ino = 42; off = 123456; data = Bytes.make 4096 'x' } in
    Test.make ~name:"fuse proto encode+decode 4K write" (Staged.stage (fun () ->
        let m = Fusesim.Proto.encode_request ~unique:7 req in
        ignore (Fusesim.Proto.decode_request m)))
  in
  let dinode_test =
    let block = Bytes.make 4096 '\000' in
    let d = { Xv6fs.Layout.ftype = Xv6fs.Layout.F_file; nlink = 1; size = 123456;
              addrs = Array.init 14 (fun i -> i * 17) } in
    Test.make ~name:"dinode put+get" (Staged.stage (fun () ->
        Xv6fs.Layout.put_dinode block ~slot:3 d;
        ignore (Xv6fs.Layout.get_dinode block ~slot:3)))
  in
  let rng_test =
    let rng = Sim.Rng.create 7 in
    Test.make ~name:"rng zipf x100" (Staged.stage (fun () ->
        for _ = 1 to 100 do
          ignore (Sim.Rng.zipf rng ~n:100000 ~theta:0.9)
        done))
  in
  let tests =
    Test.make_grouped ~name:"bento-hot-paths"
      [ heap_test; checksum_test; proto_test; dinode_test; rng_test ]
  in
  let benchmark () =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
    in
    let raw = Benchmark.all cfg instances tests in
    let ols =
      Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
    in
    let results = List.map (fun inst -> Analyze.all ols inst raw) instances in
    Analyze.merge ols instances results
  in
  header "Bechamel: wall-clock microbenchmarks";
  let results = benchmark () in
  Hashtbl.iter
    (fun _metric tbl ->
      Hashtbl.iter
        (fun name ols ->
          match Bechamel.Analyze.OLS.estimates ols with
          | Some [ est ] -> pf "%-40s %12.1f ns/run\n" name est
          | _ -> pf "%-40s (no estimate)\n" name)
        tbl)
    results;
  pf "%!"

(* ------------------------------------------------------------------ *)

(* Every section, in the order [all] runs them: the one table behind
   dispatch, [all] and the usage text. *)
let sections =
  [
    ("table1", table1); ("table2", table2); ("table3", table3);
    ("fig2", fig2); ("fig3", fig3); ("fig4", fig4);
    ("table4", table4); ("table5", table5); ("table6", table6);
    ("readahead", readahead_section); ("scaling", scaling);
    ("server", server_section); ("coldstart", coldstart_section);
    ("ablate", ablate); ("upgrade", upgrade);
    ("pushdown", pushdown_section); ("bechamel", bechamel);
  ]

(* The current commit, for run provenance in the JSON metadata. Advisory
   only — bench-diff does not gate on it (old and new legitimately come
   from different commits). *)
let git_describe () =
  let tmp = Filename.temp_file "bench_git" ".txt" in
  let cmd =
    Printf.sprintf "git describe --always --dirty 2>/dev/null > %s"
      (Filename.quote tmp)
  in
  let out =
    if Sys.command cmd = 0 then (
      let ic = open_in tmp in
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      line)
    else ""
  in
  (try Sys.remove tmp with Sys_error _ -> ());
  if out = "" then "unknown" else out

(* Write the accumulated result rows as {meta, results}. Everything that
   shapes the numbers (seed, duration, scale, cost model, block size) goes
   into meta so bench-diff can refuse incomparable runs. *)
let write_json path sections =
  let open Util.Json in
  let doc =
    Obj
      [
        ( "meta",
          Obj
            [
              ("benchmark", String "bento-sim");
              ("sections", List (List.map (fun s -> String s) sections));
              ("duration_s", Float !duration);
              ("untar_files", Int !untar_files);
              ("seed", Int !seed);
              ("block_size", Int 4096);
              ("cost_model", String Kernel.Cost.model_version);
              ("git_describe", String (git_describe ()));
            ] );
        ("results", List (List.rev !results));
      ]
  in
  let oc = open_out path in
  output_string oc (to_string doc);
  output_char oc '\n';
  close_out oc;
  pf "wrote %d result rows to %s\n%!" (List.length !results) path

(* Combine every traced run into one Chrome trace-event file: one process
   per run (pid = run order, process_name = section:config:system), so
   per-process timestamps are each run's monotone virtual clock. *)
let write_trace path =
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_char buf '[';
  let first = ref true in
  let runs = List.rev !Targets.observations in
  List.iteri
    (fun i (o : Targets.observation) ->
      let wrote =
        Sim.Trace.write_events buf ~pid:(i + 1) ~process_name:o.obs_label
          ~first:!first o.obs_tracer
      in
      if wrote then first := false)
    runs;
  Buffer.add_string buf "]\n";
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc;
  pf "wrote trace of %d runs to %s\n%!" (List.length runs) path

(* One flamegraph collapsed-stack file covering all profiled runs, each
   run's stacks prefixed with its label so flamegraph.pl draws one tower
   per run. *)
let write_folded path =
  let oc = open_out path in
  let n = ref 0 in
  List.iter
    (fun (o : Targets.observation) ->
      match o.obs_profile with
      | None -> ()
      | Some p ->
          incr n;
          List.iter
            (fun (stack, ns) ->
              Printf.fprintf oc "%s;%s %Ld\n" o.obs_label stack ns)
            (Sim.Profile.folded p))
    (List.rev !Targets.observations);
  close_out oc;
  pf "wrote folded stacks of %d runs to %s\n%!" !n path

let print_profiles () =
  header "Per-layer virtual-time attribution";
  List.iter
    (fun (o : Targets.observation) ->
      match o.obs_profile with
      | Some p -> Targets.print_profile ~label:o.obs_label p
      | None -> ())
    (List.rev !Targets.observations)

let int_list v = List.map int_of_string (String.split_on_char ',' v)

(* Flags that take a value. *)
let flags =
  [
    ("--duration", fun v -> duration := float_of_string v);
    ("--untar-files", fun v -> untar_files := int_of_string v);
    ("--seed", fun v -> seed := int_of_string v);
    ("--scaling-fibers", fun v -> scaling_fibers := int_list v);
    ("--server-clients", fun v -> server_clients := int_list v);
    ("--coldstart-tenants", fun v -> coldstart_tenants := int_list v);
    ("--json", fun v -> json_path := Some v);
    ("--trace", fun v -> trace_path := Some v);
    ("--folded", fun v -> folded_path := Some v);
  ]

let usage msg =
  Printf.eprintf "%s\nsections: %s, all\nflags: %s, --profile\n" msg
    (String.concat ", " (List.map fst sections))
    (String.concat ", " (List.map (fun (f, _) -> f ^ " <v>") flags));
  exit 2

(* Validate every argument before any section runs: a bad section name,
   unknown flag, missing or malformed value exits 2 having done no work. *)
let rec parse acc = function
  | [] -> List.rev acc
  | "--profile" :: rest ->
      profile := true;
      parse acc rest
  | f :: rest when List.mem_assoc f flags -> (
      match rest with
      | [] -> usage (spf "flag %s needs a value" f)
      | v :: rest ->
          (try List.assoc f flags v
           with Failure _ -> usage (spf "bad value %S for %s" v f));
          parse acc rest)
  | s :: rest when s = "all" || List.mem_assoc s sections -> parse (s :: acc) rest
  | s :: _ -> usage (spf "unknown section or flag %S" s)

let () =
  let sections_run = parse [] (List.tl (Array.to_list Sys.argv)) in
  if !json_path <> None || !trace_path <> None || !profile
     || !folded_path <> None
  then Targets.observe := true;
  if !trace_path <> None then Targets.trace_enabled := true;
  if !profile || !folded_path <> None then Targets.profile_enabled := true;
  let ran = if sections_run = [] then [ "all" ] else sections_run in
  List.iter
    (fun name ->
      List.iter
        (fun (s, run) -> if name = "all" || name = s then run ())
        sections)
    ran;
  if !profile then print_profiles ();
  Option.iter (fun p -> write_json p ran) !json_path;
  Option.iter write_trace !trace_path;
  Option.iter write_folded !folded_path
