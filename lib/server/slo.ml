(** Per-tenant SLO monitoring: sliding-window latency percentiles,
    throughput, and burn-rate breach detection for the file server.

    Each tenant class gets a monitor fed one sample per completed request
    (virtual completion time + latency). The monitor keeps a sliding
    window of recent samples and maintains, in O(1) per sample, the count
    of window samples over the tenant's latency target. The *burn rate*
    is the fraction of the window over target; when it exceeds the error
    budget the tenant enters a breach episode — counted once per episode
    (edge-triggered), noted in the machine tracer, and cleared when the
    burn rate falls back under budget.

    Counters ([<tenant>_ops], [<tenant>_over_target], [<tenant>_breaches])
    live in a stats registry the constructor registers with the machine
    under the ["slo"] prefix, so [Machine.counter_snapshot] — and
    therefore [bench --json] and the bench-diff gate — see them without
    extra plumbing. Percentiles are computed on demand from the window
    ({!summary}), which is how the bench extracts slo_p99_ms rows. *)

type monitor = {
  m_tenant : string;
  m_target_ns : int64;
  m_window : (int64 * int64) Queue.t;  (** (completion ts, latency) *)
  mutable m_over : int;  (** window samples over target *)
  mutable m_breaching : bool;  (** currently inside a breach episode *)
  m_ops : Sim.Stats.Counter.t;
  m_over_total : Sim.Stats.Counter.t;
  m_breaches : Sim.Stats.Counter.t;
}

type t = {
  machine : Kernel.Machine.t;
  stats : Sim.Stats.t;
  monitors : (string, monitor) Hashtbl.t;
  order : string list;
  window_ns : int64;
  budget : float;  (** tolerated over-target fraction of the window *)
  min_samples : int;  (** no breach verdicts from a near-empty window *)
}

let default_target_ns = 20_000_000L (* 20 ms *)
let default_window_ns = 1_000_000_000L (* 1 s of virtual time *)
let default_budget = 0.01

(** One monitor per tenant class. [targets] overrides the per-tenant p99
    target (ns); tenants not listed get [default_target_ns]. *)
let create ?(window_ns = default_window_ns) ?(budget = default_budget)
    ?(min_samples = 20) ?(targets = []) machine tenants =
  let stats = Sim.Stats.create () in
  Kernel.Machine.register_stats machine ~prefix:"slo" stats;
  let monitors = Hashtbl.create 8 in
  List.iter
    (fun name ->
      Hashtbl.replace monitors name
        {
          m_tenant = name;
          m_target_ns =
            Option.value ~default:default_target_ns
              (List.assoc_opt name targets);
          m_window = Queue.create ();
          m_over = 0;
          m_breaching = false;
          m_ops = Sim.Stats.counter stats (name ^ "_ops");
          m_over_total = Sim.Stats.counter stats (name ^ "_over_target");
          m_breaches = Sim.Stats.counter stats (name ^ "_breaches");
        })
    tenants;
  { machine; stats; monitors; order = tenants; window_ns; budget; min_samples }

let monitor_exn t tenant =
  match Hashtbl.find_opt t.monitors tenant with
  | Some m -> m
  | None -> invalid_arg ("Slo.record: unknown tenant " ^ tenant)

let evict t m now =
  let horizon = Int64.sub now t.window_ns in
  let rec go () =
    match Queue.peek_opt m.m_window with
    | Some (ts, lat) when Int64.compare ts horizon < 0 ->
        ignore (Queue.pop m.m_window);
        if Int64.compare lat m.m_target_ns > 0 then m.m_over <- m.m_over - 1;
        go ()
    | _ -> ()
  in
  go ()

(** Feed one completed request. O(1) amortised. *)
let record t ~tenant lat_ns =
  let m = monitor_exn t tenant in
  let now = Kernel.Machine.now t.machine in
  evict t m now;
  Queue.push (now, lat_ns) m.m_window;
  Sim.Stats.Counter.incr m.m_ops;
  let over = Int64.compare lat_ns m.m_target_ns > 0 in
  if over then begin
    m.m_over <- m.m_over + 1;
    Sim.Stats.Counter.incr m.m_over_total
  end;
  let n = Queue.length m.m_window in
  if n >= t.min_samples then begin
    let burn = float_of_int m.m_over /. float_of_int n in
    if burn > t.budget && not m.m_breaching then begin
      m.m_breaching <- true;
      Sim.Stats.Counter.incr m.m_breaches;
      Sim.Trace.note ~sev:Sim.Trace.Warn (Kernel.Machine.tracer t.machine)
        ~kind:"slo"
        (Printf.sprintf "tenant %s burn rate %.3f over budget %.3f (%d/%d over %Ld ns)"
           tenant burn t.budget m.m_over n m.m_target_ns)
    end
    else if burn <= t.budget && m.m_breaching then m.m_breaching <- false
  end

type summary = {
  s_tenant : string;
  s_target_ns : int64;
  s_ops : int64;  (** total requests ever recorded *)
  s_window : int;  (** samples currently in the window *)
  s_p50_ns : int64;
  s_p99_ns : int64;
  s_throughput : float;  (** window ops per virtual second *)
  s_over_target : int64;
  s_breaches : int64;
}

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0L
  else sorted.(min (n - 1) (int_of_float (float_of_int (n - 1) *. p)))

(** Current window view of one tenant (evicts stale samples first). *)
let summary t tenant =
  let m = monitor_exn t tenant in
  evict t m (Kernel.Machine.now t.machine);
  let lats =
    Queue.fold (fun acc (_, lat) -> lat :: acc) [] m.m_window
    |> Array.of_list
  in
  Array.sort Int64.compare lats;
  let n = Queue.length m.m_window in
  let throughput =
    if n = 0 then 0.
    else
      let span =
        match (Queue.peek_opt m.m_window, Queue.fold (fun _ s -> Some s) None m.m_window) with
        | Some (first, _), Some (last, _) when Int64.compare last first > 0 ->
            Int64.to_float (Int64.sub last first) /. 1e9
        | _ -> 0.
      in
      if span > 0. then float_of_int n /. span
      else float_of_int n /. (Int64.to_float t.window_ns /. 1e9)
  in
  {
    s_tenant = tenant;
    s_target_ns = m.m_target_ns;
    s_ops = Sim.Stats.Counter.get m.m_ops;
    s_window = n;
    s_p50_ns = percentile lats 0.50;
    s_p99_ns = percentile lats 0.99;
    s_throughput = throughput;
    s_over_target = Sim.Stats.Counter.get m.m_over_total;
    s_breaches = Sim.Stats.Counter.get m.m_breaches;
  }

let summaries t = List.map (summary t) t.order
let tenants t = t.order

let set_target t ~tenant ns =
  let m = monitor_exn t tenant in
  (* rebuild the over-count against the new target *)
  let m' = { m with m_target_ns = ns } in
  m'.m_over <- 0;
  Queue.iter
    (fun (_, lat) ->
      if Int64.compare lat ns > 0 then m'.m_over <- m'.m_over + 1)
    m'.m_window;
  Hashtbl.replace t.monitors tenant m'

(** Live probe for [Machine.inspect]: per-tenant window percentiles,
    throughput, and breach counters. *)
let inspect t =
  let open Util.Json in
  Obj
    (List.map
       (fun s ->
         ( s.s_tenant,
           Obj
             [
               ("target_ms", Float (Int64.to_float s.s_target_ns /. 1e6));
               ("ops", Int (Int64.to_int s.s_ops));
               ("window_samples", Int s.s_window);
               ("p50_ms", Float (Int64.to_float s.s_p50_ns /. 1e6));
               ("p99_ms", Float (Int64.to_float s.s_p99_ns /. 1e6));
               ("throughput_ops_s", Float s.s_throughput);
               ("over_target", Int (Int64.to_int s.s_over_target));
               ("breaches", Int (Int64.to_int s.s_breaches));
             ] ))
       (summaries t))
