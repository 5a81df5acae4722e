(** Deterministic discrete-event engine with cooperative simulated threads.

    Threads ("fibers") are ordinary OCaml functions run under an effect
    handler. They block by performing the [Sleep] / [Block] effects; the
    engine resumes them from its virtual-time event queue. Because the event
    queue is totally ordered by (time, insertion sequence), a simulation with
    a fixed seed is fully deterministic and replayable — the property all of
    the benchmark results rely on. *)

exception Deadlock of string
exception Fiber_failure of string * exn

type fiber = {
  fid : int;
  name : string;
  mutable dead : bool;
  mutable req : int64;
      (** request context: the causal request id the fiber is working on
          behalf of, inherited by fibers it spawns; 0 = none *)
  mutable blocked_on : string;
      (** what the fiber last blocked on, for deadlock reports *)
}

type t = {
  mutable now : int64;
  events : (int * (unit -> unit)) Heap.t;
      (** each event carries the fid of the fiber it will resume (-1 for
          unowned callbacks), so a profiler can attribute the virtual time
          that elapses up to the event *)
  mutable seq : int;
  mutable next_fid : int;
  mutable live_fibers : int;
  mutable running : fiber option;
  mutable failure : (string * exn * Printexc.raw_backtrace) option;
  mutable trace : bool;
  mutable on_advance : (int64 -> int -> unit) option;
      (** called with (delta, owner fid) just before [now] advances *)
  mutable on_lock_wait : (string -> int64 -> unit) option;
      (** called as [hook lock_name wait_ns] when a fiber resumes after
          blocking on a named synchronisation primitive *)
  mutable next_req : int64;
      (** request-id mint; ids are engine-unique and never reused *)
  mutable on_fiber_exit : (int -> unit) option;
      (** called with the fid of a fiber whose body returned normally,
          while the fiber is still current — used by [Trace] to detect
          spans begun but never ended *)
  blocked : (int, fiber) Hashtbl.t;
      (** fibers currently inside [block], by fid: the deadlock report *)
}

type _ Effect.t +=
  | Sleep : int64 -> unit Effect.t
  | Block : string option * string * ((unit -> unit) -> unit) -> int64 Effect.t

let create () =
  {
    now = 0L;
    events = Heap.create ();
    seq = 0;
    next_fid = 0;
    live_fibers = 0;
    running = None;
    failure = None;
    trace = false;
    on_advance = None;
    on_lock_wait = None;
    next_req = 0L;
    on_fiber_exit = None;
    blocked = Hashtbl.create 64;
  }

let now t = t.now
let set_trace t b = t.trace <- b
let set_advance_hook t hook = t.on_advance <- hook
let set_lock_wait_hook t hook = t.on_lock_wait <- hook
let set_fiber_exit_hook t hook = t.on_fiber_exit <- hook

(** Request context of the currently running fiber (0 = none). New fibers
    inherit the spawner's context, so a request's identity follows the
    work across async hops — server handler to device completion fiber —
    without any call-site plumbing. *)
let current_req t = match t.running with Some f -> f.req | None -> 0L

let set_current_req t r =
  match t.running with Some f -> f.req <- r | None -> ()

(** Mint a fresh engine-unique request id (never 0). *)
let next_req_id t =
  t.next_req <- Int64.add t.next_req 1L;
  t.next_req

(* Fire the advance hook for a move of the clock to [time] on behalf of
   fiber [fid]. Zero-delta moves are skipped: only real time needs owners. *)
let note_advance t time fid =
  match t.on_advance with
  | Some hook when Int64.compare time t.now > 0 ->
      hook (Int64.sub time t.now) fid
  | _ -> ()

(** Fiber id of the currently running fiber, or -1 outside fiber context
    (used by the tracer to attribute events to threads). *)
let current_fid t = match t.running with Some f -> f.fid | None -> -1

let schedule_owned t ~fid time f =
  if Int64.compare time t.now < 0 then
    invalid_arg "Engine.schedule_at: time in the past";
  t.seq <- t.seq + 1;
  Heap.push t.events ~time ~seq:t.seq (fid, f)

let schedule_at t time f = schedule_owned t ~fid:(-1) time f
let schedule_after t delay f = schedule_at t (Int64.add t.now delay) f

(* Run [f] as a fiber body under the engine's effect handler. *)
let start_fiber t fiber f =
  let open Effect.Deep in
  let saved = t.running in
  t.running <- Some fiber;
  (try
     match_with f ()
       {
         retc =
           (fun () ->
             (match t.on_fiber_exit with
             | Some hook -> hook fiber.fid
             | None -> ());
             fiber.dead <- true;
             t.live_fibers <- t.live_fibers - 1);
         exnc =
           (fun exn ->
             fiber.dead <- true;
             t.live_fibers <- t.live_fibers - 1;
             if t.failure = None then
               t.failure <- Some (fiber.name, exn, Printexc.get_raw_backtrace ()));
         effc =
           (fun (type a) (eff : a Effect.t) ->
             match eff with
             | Sleep d ->
                 Some
                   (fun (k : (a, _) continuation) ->
                     schedule_owned t ~fid:fiber.fid (Int64.add t.now d)
                       (fun () ->
                         let saved' = t.running in
                         t.running <- Some fiber;
                         continue k ();
                         t.running <- saved'))
             | Block (lock, reason, register) ->
                 Some
                   (fun (k : (a, _) continuation) ->
                     fiber.blocked_on <- reason;
                     Hashtbl.replace t.blocked fiber.fid fiber;
                     let t0 = t.now in
                     let fired = ref false in
                     register (fun () ->
                         if !fired then
                           invalid_arg "Engine: waker invoked twice";
                         fired := true;
                         schedule_owned t ~fid:fiber.fid t.now (fun () ->
                             let saved' = t.running in
                             t.running <- Some fiber;
                             Hashtbl.remove t.blocked fiber.fid;
                             let waited = Int64.sub t.now t0 in
                             (match (lock, t.on_lock_wait) with
                             | Some name, Some hook
                               when Int64.compare waited 0L > 0 ->
                                 hook name waited
                             | _ -> ());
                             continue k waited;
                             t.running <- saved')))
             | _ -> None);
       }
   with exn ->
     t.running <- saved;
     raise exn);
  t.running <- saved

let spawn ?(name = "fiber") t f =
  let req = match t.running with Some f -> f.req | None -> 0L in
  let fiber = { fid = t.next_fid; name; dead = false; req; blocked_on = "" } in
  t.next_fid <- t.next_fid + 1;
  t.live_fibers <- t.live_fibers + 1;
  schedule_owned t ~fid:fiber.fid t.now (fun () -> start_fiber t fiber f);
  fiber

let check_failure t =
  match t.failure with
  | Some (name, exn, bt) ->
      t.failure <- None;
      Printexc.raise_with_backtrace (Fiber_failure (name, exn)) bt
  | None -> ()

(** Run until the event queue drains. Raises [Fiber_failure] if any fiber
    raised, [Deadlock] if fibers remain blocked with no pending event. *)
let run t =
  let rec loop () =
    match Heap.pop t.events with
    | None -> ()
    | Some { time; payload = fid, f; _ } ->
        note_advance t time fid;
        t.now <- time;
        (if t.trace && t.seq mod 1_000_000 = 0 then
           Printf.eprintf "EVT seq=%d now=%Ld\n%!" t.seq t.now);
        f ();
        check_failure t;
        loop ()
  in
  loop ();
  if t.live_fibers > 0 then begin
    let details =
      Hashtbl.fold
        (fun _ f acc ->
          Printf.sprintf "%s#%d waiting on %s" f.name f.fid f.blocked_on :: acc)
        t.blocked []
      |> List.sort compare |> String.concat "; "
    in
    raise
      (Deadlock
         (Printf.sprintf "%d fiber(s) still blocked at t=%Ldns [%s]"
            t.live_fibers t.now details))
  end

(** Run events up to and including virtual time [deadline]. Events after the
    deadline stay queued; blocked fibers are not a deadlock here. *)
let run_until t deadline =
  let rec loop () =
    match Heap.peek t.events with
    | None -> ()
    | Some { time; _ } when Int64.compare time deadline > 0 -> ()
    | Some _ ->
        (match Heap.pop t.events with
        | None -> ()
        | Some { time; payload = fid, f; _ } ->
            note_advance t time fid;
            t.now <- time;
            f ();
            check_failure t;
            loop ())
  in
  loop ();
  if Int64.compare t.now deadline < 0 then begin
    note_advance t deadline (-1);
    t.now <- deadline
  end

(* ------------------------------------------------------------------ *)
(* Operations usable from inside a fiber.                              *)

let sleep d =
  if Int64.compare d 0L < 0 then invalid_arg "Engine.sleep: negative";
  if Int64.compare d 0L > 0 then Effect.perform (Sleep d)

let yield () = Effect.perform (Sleep 0L)

(** [block ?lock reason register] blocks the current fiber until the waker
    handed to [register] is invoked, and returns the virtual nanoseconds
    spent blocked. *)
let block ?lock reason register = Effect.perform (Block (lock, reason, register))
