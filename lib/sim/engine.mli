(** Deterministic discrete-event engine with cooperative simulated threads
    ("fibers").

    Fibers are plain OCaml functions executed under an effect handler; they
    block by performing effects ([sleep], [block]) and the engine resumes
    them from a virtual-time event queue. Event order is total — (time,
    insertion sequence) — so simulations are deterministic and replayable. *)

type t
(** An engine instance: virtual clock + event queue + fiber bookkeeping. *)

exception Deadlock of string
(** Raised by {!run} when fibers remain blocked but no event is pending.
    The message lists each blocked fiber and what it is waiting on. *)

exception Fiber_failure of string * exn
(** A fiber raised: carries the fiber name and the original exception. *)

type fiber
(** Handle to a spawned fiber. *)

val create : unit -> t

val now : t -> int64
(** Current virtual time in nanoseconds. *)

val set_trace : t -> bool -> unit
(** Enable coarse event-count tracing to stderr (debugging aid). *)

val current_fid : t -> int
(** Id of the currently running fiber, or -1 outside fiber context. Used by
    {!Trace} to attribute events to simulated threads. *)

val set_advance_hook : t -> (int64 -> int -> unit) option -> unit
(** Install (or clear) a hook called as [hook delta fid] just before the
    virtual clock advances by [delta] > 0 nanoseconds. [fid] is the fiber
    whose wakeup event causes the advance, or -1 when the advance is caused
    by an unowned callback or by {!run_until} padding the clock out to its
    deadline. Since virtual time only moves here, a hook that charges every
    delta somewhere accounts for the whole run exactly — the basis of
    {!Profile}. *)

val set_lock_wait_hook : t -> (string -> int64 -> unit) option -> unit
(** Install (or clear) a hook called as [hook lock_name wait_ns] from a
    fiber that just resumed after blocking for [wait_ns] > 0 virtual
    nanoseconds on a named synchronisation primitive. Blocked time is
    invisible to the advance hook (advances are charged to the fiber that
    causes them, never to waiters), so contention profiling needs this
    separate channel — see {!Profile}. *)

val set_fiber_exit_hook : t -> (int -> unit) option -> unit
(** Install (or clear) a hook called with the fid of each fiber whose body
    returns normally, while that fiber is still current. Fibers that exit
    by raising are skipped — the exception already reports the failure.
    Used by {!Trace}'s debug mode to detect unbalanced spans. *)

(** {1 Request context}

    A request id is an engine-unique [int64] (0 = none) carried by each
    fiber and inherited by fibers it spawns — so the identity of "the
    request being served" follows the work across async hops (handler
    fiber to device completion fiber) with no call-site plumbing. {!Trace}
    stamps it on every event, which is what lets a causal trace be
    reassembled per request. *)

val current_req : t -> int64
(** Request context of the currently running fiber (0 outside a fiber or
    when none was set). *)

val set_current_req : t -> int64 -> unit
(** Set (or, with 0, clear) the current fiber's request context. No-op
    outside fiber context. *)

val next_req_id : t -> int64
(** Mint a fresh engine-unique request id (never 0). *)

val schedule_at : t -> int64 -> (unit -> unit) -> unit
(** Run a callback at an absolute virtual time (>= [now t]). *)

val schedule_after : t -> int64 -> (unit -> unit) -> unit

val spawn : ?name:string -> t -> (unit -> unit) -> fiber
(** Start a new fiber at the current virtual time. The [name] appears in
    failure and deadlock reports. *)

val run : t -> unit
(** Drain the event queue. Raises {!Fiber_failure} if any fiber raised and
    {!Deadlock} if blocked fibers remain with an empty queue. *)

val run_until : t -> int64 -> unit
(** Process events up to and including [deadline]; later events stay
    queued. Blocked fibers are not treated as a deadlock. *)

(** {1 Operations available inside a fiber} *)

val sleep : int64 -> unit
(** Suspend the calling fiber for a duration of virtual time. *)

val yield : unit -> unit
(** Reschedule the calling fiber behind events at the current instant. *)

val block : ?lock:string -> string -> ((unit -> unit) -> unit) -> int64
(** [block ?lock reason register] blocks the calling fiber and returns the
    virtual nanoseconds it spent blocked. [register] receives a waker that,
    when invoked (exactly once), resumes the fiber at the waking moment.
    The building block of all synchronisation primitives, and one effect
    per wait:
    - while blocked, the fiber is listed in this engine's {!Deadlock}
      report as [name#fid waiting on reason] (pass a constant or a string
      built once, at lock creation: [block] never formats);
    - on resume, with the fiber current again and before it continues,
      a wait longer than zero on a [lock] is reported to the
      {!set_lock_wait_hook} hook as [hook lock waited]. The hook runs
      outside the fiber's effect handler, so it must not block. *)
