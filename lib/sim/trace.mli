(** Span/event tracer over virtual time, and the machine's one event
    stream.

    Begin/end spans and instant events are stamped with the engine's
    virtual clock, the running fiber's id, and the fiber's request context
    ({!Engine.current_req}), and kept in a bounded ring buffer (oldest
    events dropped first). Disabled — the default — every span emit is a
    single branch, and recording never affects virtual time in either
    state. The same ring holds the always-on flight record: severity-tagged
    {!note}s, recorded whether or not spans are enabled, which a
    {!trigger} renders together with the offending request's causal trace.
    Flow events record cross-fiber causal edges (submit on one fiber,
    complete on another); {!Causal} reassembles an event stream into
    per-request DAGs. Exports Chrome trace-event JSON for chrome://tracing
    / Perfetto, with fibers as threads and flows as bound arrows. *)

type severity = Debug | Info | Warn | Error

val severity_label : severity -> string

type phase =
  | Begin
  | End
  | Instant
  | Counter
  | Flow_start
  | Flow_finish
  | Note of severity  (** always-on; [cat] is the note kind, [name] its text *)

type event = {
  ph : phase;
  name : string;
  cat : string;
  ts : int64;  (** virtual nanoseconds *)
  tid : int;  (** fiber id, -1 outside fiber context *)
  value : int64;
      (** sample value for [Counter] events, flow-edge id for
          [Flow_start]/[Flow_finish], 0 otherwise *)
  req : int64;  (** request context at emit time, 0 = none *)
}

exception Unbalanced_span of string
(** Raised in debug mode on a mismatched [span_end] or when a fiber exits
    with a span still open. *)

type t

val create : ?capacity:int -> Engine.t -> t
(** A tracer with spans disabled and a ring of [capacity] events (default
    4096). *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit
(** Gates spans, instants, counters and flows; notes are always recorded. *)

val set_capacity : t -> int -> unit
(** Replace the ring with a fresh one of the given capacity, clearing any
    retained events. Long traced runs (server bench sweeps) need more than
    the default to keep whole requests from being overwritten. *)

val set_debug : t -> bool -> unit
(** Debug mode: track span begin/end balance per fiber; a mismatched end
    or a fiber exiting with an open span raises {!Unbalanced_span} instead
    of silently truncating the trace. Installs the engine's fiber-exit
    hook while on. Only spans actually emitted (tracer enabled) are
    tracked. *)

val debug : t -> bool

val span_begin : t -> ?cat:string -> string -> unit
val span_end : t -> ?cat:string -> string -> unit
val instant : t -> ?cat:string -> string -> unit

val counter : t -> ?cat:string -> string -> int64 -> unit
(** Sample a named counter time-series (queue depth, dirty pages, log free
    space, ...). Exported as a Chrome counter event (["ph":"C"]) so it
    renders as a track in Perfetto alongside the spans. *)

val flow_begin : t -> ?cat:string -> string -> int64
(** Open a causal flow edge at the current (fiber, time) and return its
    edge id, to be handed (through a completion record, queue entry, ...)
    to whichever fiber continues the work. Returns 0 when the tracer is
    disabled; {!flow_end} treats 0 as a no-op. Exported as ["ph":"s"]. *)

val flow_end : t -> ?cat:string -> string -> int64 -> unit
(** Close a flow edge on the receiving fiber. Exported as ["ph":"f"] with
    [bp:"e"], which Perfetto draws as an arrow from the opening slice to
    the enclosing slice's end. *)

val with_span : t -> ?cat:string -> string -> (unit -> 'a) -> 'a
(** Run a function inside a begin/end pair (ended on exceptions too). When
    disabled this is just a call to the function. *)

val note : ?sev:severity -> t -> kind:string -> string -> unit
(** Record a note (default severity [Info]) of class [kind] ("syscall",
    "errno", "printk", "server", ...) with the current fiber and request
    context, whether or not the tracer is enabled. Exported as ["ph":"i"]
    with [args.sev]. *)

val events : t -> event list
(** Retained events, oldest first; timestamps are nondecreasing. *)

val notes : t -> event list
(** The retained notes, oldest first. *)

val length : t -> int
val dropped : t -> int
(** Events overwritten after the ring filled. *)

val clear : t -> unit

(** Per-request causal reconstruction over a flat event stream. *)
module Causal : sig
  type request = {
    req : int64;
    fibers : int list;  (** distinct fids that emitted for this request *)
    spans : int;  (** Begin events *)
    flow_edges : int;  (** matched start/finish pairs *)
    orphan_finishes : int;  (** finishes whose edge has no start here *)
    connected : bool;
        (** all fibers reachable from one another via flow edges *)
  }

  val requests : event list -> request list
  (** Group by request id (reqid-0 background events and notes ignored) and
      reconstruct each request's graph: fibers are nodes, matched flow
      edges connect them. *)

  val connected_ratio : event list -> float
  (** Fraction of requests whose graph is connected with no orphan
      finishes; 1.0 when the stream contains no requests. *)
end

val write_events :
  Buffer.t -> pid:int -> ?process_name:string -> first:bool -> t -> bool
(** Append the events as comma-separated Chrome trace objects (no
    brackets), under process id [pid] — for combining several runs into one
    file. [first] suppresses the leading comma; returns true if anything
    was written. *)

val to_chrome_json : ?pid:int -> ?process_name:string -> t -> string
(** A complete Chrome trace-event JSON document ("JSON array format"). *)

(** {1 Flight-recorder dumps} *)

val max_dumps : int
(** Dumps kept per tracer (16); later triggers are ignored. *)

val trigger : t -> string -> bool
(** [trigger t reason] notes the trigger and renders a dump of the retained
    notes plus every event of the current request, kept as {!last_dump}.
    Returns whether a dump was produced. *)

val render : t -> reason:string -> req:int64 -> string
(** The dump text without triggering (used by the CLI to export the ring
    on demand). *)

val dump_count : t -> int

val last_dump : t -> (string * string) option
(** Most recent (reason, content). *)
