(** The simulated machine: engine + CPU cores + the attached device + global
    statistics + tracer + profiler. Every stack (Bento, C-VFS, FUSE, ext4)
    runs on one of these. *)

type t = {
  engine : Sim.Engine.t;
  cpu : Sim.Resource.t;
  cost : Cost.t;
  disk : Device.Ssd.t;
  stats : Sim.Stats.t;
  tracer : Sim.Trace.t;
  profile : Sim.Profile.t;
  flight : Sim.Flight.t;
  mutable registries : (string * Sim.Stats.t) list;
      (** stats registries of attached subsystems (bcache, fuse transport,
          ...), newest first, each under a dotted prefix — so one snapshot
          covers the whole stack *)
  mutable inspectors : (string * (unit -> Util.Json.t)) list;
      (** live internal-state probes (bcache residency, lease table, WFQ
          depths, ...), newest first, keyed by name — [inspect] snapshots
          them all *)
  mutable slots : binding list;
      (** per-machine state of kernel subsystems (pushdown registry, CAS
          store), one entry per {!key}: it lives and dies with the machine *)
}

and binding = Binding : 'a Type.Id.t * 'a -> binding

let create ?(cost = Cost.default) ?config ~disk_blocks ~block_size () =
  let engine = Sim.Engine.create () in
  let tracer = Sim.Trace.create engine in
  let profile = Sim.Profile.create engine in
  let disk =
    Device.Ssd.create ?config ~tracer ~profile ~nblocks:disk_blocks
      ~block_size engine
  in
  let stats = Sim.Stats.create () in
  let flight = Sim.Flight.create ~cpus:cost.Cost.ncores engine tracer in
  {
    engine;
    cpu = Sim.Resource.create ~name:"cpu" cost.Cost.ncores;
    cost;
    disk;
    stats;
    tracer;
    profile;
    flight;
    registries = [ ("machine", stats); ("ssd", Device.Ssd.stats disk) ];
    inspectors = [];
    slots = [];
  }

let engine t = t.engine
let disk t = t.disk
let cost t = t.cost
let stats t = t.stats
let tracer t = t.tracer
let profile t = t.profile
let flight t = t.flight
let now t = Sim.Engine.now t.engine

(** Run [f] under profiler layer frame [layer] (no-op while profiling is
    disabled). *)
let with_layer t layer f = Sim.Profile.with_frame t.profile layer f

(** Attach a subsystem's stats registry under [prefix] so machine-wide
    counter snapshots include it. Registering the same prefix twice (e.g.
    mount/remount creating two bcaches) is fine: snapshots sum by name. *)
let register_stats t ~prefix stats = t.registries <- (prefix, stats) :: t.registries

(** Register a live internal-state probe under [name] — a function that,
    when {!inspect} runs, snapshots some subsystem's current state as
    JSON (bcache residency per shard, lease table, WFQ queue depths,
    journal free blocks, ...). Re-registering a name shadows the older
    probe (mount/remount). *)
let register_inspector t ~name probe =
  t.inspectors <- (name, probe) :: t.inspectors

(** Snapshot every registered inspector as one JSON object, name-sorted;
    a probe that raises reports the exception instead of aborting the
    dump (inspection must work on a wedged machine). *)
let inspect t : Util.Json.t =
  let seen = Hashtbl.create 16 in
  let fields =
    List.filter_map
      (fun (name, probe) ->
        if Hashtbl.mem seen name then None
        else begin
          Hashtbl.replace seen name ();
          let v =
            try probe ()
            with exn ->
              Util.Json.Obj [ ("error", Util.Json.String (Printexc.to_string exn)) ]
          in
          Some (name, v)
        end)
      t.inspectors
  in
  Util.Json.Obj
    (List.sort (fun (a, _) (b, _) -> String.compare a b) fields)

type 'a key = 'a Type.Id.t

let new_key () = Type.Id.make ()

let slot (type a) t (key : a key) : a option =
  List.find_map
    (fun (Binding (k, v)) ->
      match Type.Id.provably_equal key k with
      | Some Type.Equal -> Some (v : a)
      | None -> None)
    t.slots

let set_slot t key v =
  let others =
    List.filter (fun (Binding (k, _)) -> Type.Id.uid k <> Type.Id.uid key) t.slots
  in
  t.slots <- (match v with Some v -> Binding (key, v) :: others | None -> others)

(** All counters of the machine and its registered subsystems as
    ["prefix.name"] pairs, sorted; duplicate names are summed. *)
let counter_snapshot t =
  let tbl : (string, int64) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (prefix, stats) ->
      Sim.Stats.iter_counters stats (fun name c ->
          let key = prefix ^ "." ^ name in
          let prev = Option.value ~default:0L (Hashtbl.find_opt tbl key) in
          Hashtbl.replace tbl key (Int64.add prev (Sim.Stats.Counter.get c))))
    t.registries;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(** Burn [ns] of CPU on one of the machine's cores (queueing if all cores
    are busy). This is how every simulated code path accounts for its
    processing time. *)
let cpu_work t ns =
  if Int64.compare ns 0L > 0 then Sim.Resource.use t.cpu ns

let counter t name = Sim.Stats.counter t.stats name
let incr ?by t name = Sim.Stats.Counter.incr ?by (counter t name)
let latency t name = Sim.Stats.latency t.stats name
let histogram t name = Sim.Stats.histogram t.stats name

let spawn ?name t f = ignore (Sim.Engine.spawn ?name t.engine f)
let run t = Sim.Engine.run t.engine
let run_until t deadline = Sim.Engine.run_until t.engine deadline
