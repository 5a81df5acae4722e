(** The kernel log. Silent by default (benchmarks run clean); route it to
    stderr with [set_level] to watch mounts, log recovery, upgrades, and
    fsck activity — the simulated dmesg.

    Messages are prefixed with the virtual timestamp of the machine that
    emitted them, like dmesg's monotonic stamps. *)

type level = Quiet | Err | Info | Debug

let current = ref Quiet

let set_level l = current := l

let level_enabled l =
  match (!current, l) with
  | Quiet, _ -> false
  | Err, Err -> true
  | Err, _ -> false
  | Info, (Err | Info) -> true
  | Info, Debug -> false
  | Debug, _ -> true
  | _, Quiet -> false

let severity_of = function
  | Err -> Sim.Trace.Error
  | Info -> Sim.Trace.Info
  | Debug | Quiet -> Sim.Trace.Debug

let emit machine l fmt =
  Printf.ksprintf
    (fun s ->
      (* Every line is noted in the machine tracer regardless of the
         stderr level, so triggered dumps interleave kernel log lines with
         the op/IO notes in event order. *)
      Sim.Trace.note ~sev:(severity_of l) (Machine.tracer machine)
        ~kind:"printk" s;
      if level_enabled l then
        Printf.eprintf "[%12.6f] %s\n%!"
          (Int64.to_float (Machine.now machine) /. 1e9)
          s)
    fmt

let err machine fmt = emit machine Err fmt
let info machine fmt = emit machine Info fmt
let debug machine fmt = emit machine Debug fmt
