(** The simulated machine: engine + CPU cores + attached device + global
    statistics. Every file-system stack in the evaluation runs on one. *)

type t

val create :
  ?cost:Cost.t ->
  ?config:Device.Ssd.config ->
  disk_blocks:int ->
  block_size:int ->
  unit ->
  t

val engine : t -> Sim.Engine.t
val disk : t -> Device.Ssd.t
val cost : t -> Cost.t
val stats : t -> Sim.Stats.t

val tracer : t -> Sim.Trace.t
(** The machine-wide span tracer (disabled by default); shared with the
    attached device so one trace covers syscall-to-flash. *)

val profile : t -> Sim.Profile.t
(** The machine-wide virtual-time profiler (disabled by default); shared
    with the attached device so attribution covers syscall-to-flash. *)

val flight : t -> Sim.Flight.t
(** The machine-wide flight recorder: always on (one ring per core),
    free in virtual time, dumped on triggers (slow op, error, oracle). *)

val with_layer : t -> string -> (unit -> 'a) -> 'a
(** Run a function under a profiler layer frame ("vfs", "bcache", "log",
    ...); just calls the function while profiling is disabled. *)

val register_stats : t -> prefix:string -> Sim.Stats.t -> unit
(** Attach a subsystem's stats registry (bcache, FUSE transport, ...) so
    {!counter_snapshot} covers it, each counter as ["prefix.name"].
    Registering one prefix twice is fine — snapshots sum by name. *)

val counter_snapshot : t -> (string * int64) list
(** All counters of the machine's own registry (prefix "machine"), the
    device ("ssd"), and every registered subsystem, name-sorted. *)

val register_inspector : t -> name:string -> (unit -> Util.Json.t) -> unit
(** Register a live internal-state probe (bcache residency per shard,
    lease table, WFQ queue depths, journal free blocks, ...). Probes run
    only when {!inspect} is called; re-registering a name shadows the
    older probe. *)

val inspect : t -> Util.Json.t
(** Snapshot every registered inspector as one name-sorted JSON object.
    A probe that raises contributes an ["error"] object instead of
    aborting — inspection must work on a wedged machine. *)

type 'a key
(** A typed per-machine slot. A subsystem with per-machine state (the
    pushdown registry, the CAS store) makes one key at module
    initialisation and keeps its state on the machine, so the state is
    dropped with the machine; no module-level table holds a machine. *)

val new_key : unit -> 'a key

val slot : t -> 'a key -> 'a option
(** The machine's value under [key], if set. *)

val set_slot : t -> 'a key -> 'a option -> unit
(** Set ([Some v]) or clear ([None]) the machine's value under [key]. *)

val now : t -> int64

val cpu_work : t -> int64 -> unit
(** Burn CPU on one of the machine's cores, queueing when all are busy.
    Every simulated code path accounts for its processing time here. *)

val counter : t -> string -> Sim.Stats.Counter.t
val incr : ?by:int -> t -> string -> unit
val latency : t -> string -> Sim.Stats.Latency.t
val histogram : t -> string -> Sim.Stats.Histogram.t

val spawn : ?name:string -> t -> (unit -> unit) -> unit
(** Start a fiber on this machine. *)

val run : t -> unit
val run_until : t -> int64 -> unit
