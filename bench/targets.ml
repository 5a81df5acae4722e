(** Benchmark targets: the four file-system stacks of the paper's
    evaluation ({!Stacks}), each brought up on a fresh simulated machine,
    plus the per-run observation bookkeeping behind [--json], [--trace]
    and [--profile]. *)

let system_name = function
  | Stacks.Bento -> "Bento"
  | Ckernel -> "C-Kernel"
  | Fuse -> "FUSE"
  | Ext4 -> "Ext4"

let all_xv6 = Stacks.[ Bento; Ckernel; Fuse ]

(* ------------------------------------------------------------------ *)
(* Observability: when the harness is asked for machine-readable output
   ([--json]) or traces ([--trace]), each run's tracer and end-of-run
   counter snapshot are kept so main can write them out afterwards. *)

type observation = {
  mutable obs_label : string;
  obs_tracer : Sim.Trace.t;
  obs_counters : (string * int64) list;
  obs_profile : Sim.Profile.t option;
}

let observe = ref false  (** record an [observation] per run *)

let trace_enabled = ref false  (** additionally enable the span tracer *)

let profile_enabled = ref false
(** additionally enable per-layer virtual-time attribution *)

let trace_capacity = ref (1 lsl 20)
(** ring slots when tracing: a server fleet sweep emits far more events
    than the 4Ki default, and causal reconstruction needs the whole run *)

let observations : observation list ref = ref []  (* newest first *)

(** Rename the most recent observation — called by the harness right after
    a run, once it knows the section/config the run belonged to. *)
let relabel_last label =
  match !observations with
  | o :: _ -> o.obs_label <- label
  | [] -> ()

let last_counters () =
  match !observations with o :: _ -> o.obs_counters | [] -> []

let last_tracer () =
  match !observations with o :: _ -> Some o.obs_tracer | [] -> None

let last_profile () =
  match !observations with o :: _ -> o.obs_profile | [] -> None

(** Per-layer attribution table of one profiled run. The last line is the
    conservation cross-check: attributed must equal elapsed. *)
let print_profile ~label p =
  let elapsed = Sim.Profile.elapsed p in
  let pct ns =
    if elapsed = 0L then 0.
    else Int64.to_float ns /. Int64.to_float elapsed *. 100.
  in
  Printf.printf "-- %s --\n" label;
  Printf.printf "%-16s %16s %7s %16s\n" "layer" "self_ns" "self%" "total_ns";
  List.iter
    (fun (lt : Sim.Profile.layer_time) ->
      Printf.printf "%-16s %16Ld %6.1f%% %16Ld\n" lt.layer lt.self_ns
        (pct lt.self_ns) lt.total_ns)
    (Sim.Profile.summary p);
  Printf.printf "%-16s %16Ld         attributed %Ld%s\n%!" "elapsed" elapsed
    (Sim.Profile.attributed p)
    (if Sim.Profile.attributed p = elapsed then "" else "  (MISMATCH)")

(** Lock-wait attribution table of one profiled run: the virtual time
    fibers spent blocked on each named lock, keyed "<layer>/<lock>" by the
    layer that was innermost when they blocked. Kept apart from the
    self-time tables (blocked time overlaps other fibers' running time). *)
let print_lock_waits ?(top = 8) ~label p =
  match Sim.Profile.lock_waits p with
  | [] -> Printf.printf "-- %s: no lock waits --\n%!" label
  | waits ->
      Printf.printf "-- %s --\n" label;
      Printf.printf "%-28s %16s\n" "layer/lock" "wait_ns";
      List.iteri
        (fun i (k, ns) ->
          if i < top then Printf.printf "%-28s %16Ld\n" k ns)
        waits;
      Printf.printf "%!"

(** Bring up [system] through {!Stacks.run} on a fresh machine, run
    [f os], tear down, drain the simulation, record the run's observation
    and return [f]'s result. *)
let run ?disk_blocks ?page_cap ?cas_blocks system f =
  let machine = Stacks.machine ?disk_blocks () in
  if !trace_enabled then begin
    Sim.Trace.set_capacity (Kernel.Machine.tracer machine) !trace_capacity;
    Sim.Trace.set_enabled (Kernel.Machine.tracer machine) true
  end;
  if !profile_enabled then Sim.Profile.enable (Kernel.Machine.profile machine);
  let result = Stacks.run ?page_cap ?cas_blocks system machine f in
  if !profile_enabled then
    Sim.Profile.disable (Kernel.Machine.profile machine);
  if !observe then begin
    observations :=
      {
        obs_label = system_name system;
        obs_tracer = Kernel.Machine.tracer machine;
        obs_counters = Kernel.Machine.counter_snapshot machine;
        obs_profile =
          (if !profile_enabled then Some (Kernel.Machine.profile machine)
           else None);
      }
      :: !observations
  end;
  result
