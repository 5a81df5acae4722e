(** Span/event tracer over virtual time, and the machine's one event
    stream.

    Layers emit begin/end spans and instant events stamped with the
    engine's virtual clock and the running fiber's id. Events land in a
    bounded ring buffer (oldest dropped first), so tracing a long run costs
    a fixed amount of memory. A disabled tracer reduces every emit to one
    branch — and never perturbs virtual time either way, since emitting
    performs no sleeps and no CPU accounting.

    The same ring holds the always-on flight record: severity-tagged
    {!note}s (syscall entries, errno returns, printk lines, server
    requests) are recorded whether or not span tracing is enabled. When
    something goes wrong — an op over its latency threshold, an error
    return, an accounting oracle firing — the caller {!trigger}s a dump:
    the retained notes plus the offending request's causal trace (every
    event stamped with that reqid), rendered to text and kept as
    {!last_dump}.

    Every event also carries the engine's *request context*
    ({!Engine.current_req}): fibers inherit it at spawn, so one request's
    events keep the same reqid across async hops. Flow events
    ([flow_begin]/[flow_end]) record the cross-fiber edges themselves —
    submit on one fiber, complete on another — which is what lets a
    request's trace be reassembled into a connected causal DAG
    (see {!Causal}).

    Export is Chrome trace-event JSON (the "JSON array format"), loadable
    in chrome://tracing and Perfetto: spans become B/E pairs, instants and
    notes become "i" events, flows become "s"/"f" pairs bound by id,
    fibers map to tids. *)

type severity = Debug | Info | Warn | Error

let severity_label = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

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
(** Raised (in debug mode) when a fiber exits with a span still open. *)

type t = {
  engine : Engine.t;
  mutable enabled : bool;
  mutable ring : event array;
  mutable head : int;  (** next slot to write *)
  mutable len : int;
  mutable dropped : int;
  mutable next_flow : int64;  (** flow-edge id mint (tracer-unique) *)
  mutable debug : bool;
  open_spans : (int, string list ref) Hashtbl.t;
      (** debug mode: per-fid stack of currently open span names *)
  mutable dumps : int;
  mutable last_dump : (string * string) option;  (** reason, content *)
}

let default_capacity = 4096
let max_dumps = 16

(* Filler for ring slots never written; [events] only reads written ones. *)
let empty =
  { ph = Instant; name = ""; cat = ""; ts = 0L; tid = -1; value = 0L; req = 0L }

let create ?(capacity = default_capacity) engine =
  if capacity < 1 then invalid_arg "Trace.create";
  {
    engine;
    enabled = false;
    ring = Array.make capacity empty;
    head = 0;
    len = 0;
    dropped = 0;
    next_flow = 0L;
    debug = false;
    open_spans = Hashtbl.create 64;
    dumps = 0;
    last_dump = None;
  }

let enabled t = t.enabled
let set_enabled t b = t.enabled <- b
let dropped t = t.dropped
let length t = t.len

let clear t =
  Array.fill t.ring 0 (Array.length t.ring) empty;
  t.head <- 0;
  t.len <- 0;
  t.dropped <- 0;
  Hashtbl.reset t.open_spans

(** Resize the ring (clearing retained events). Long traced runs — the
    server bench sweeps — need more than the default 4 Ki events to keep
    whole requests from being overwritten mid-flight. *)
let set_capacity t capacity =
  if capacity < 1 then invalid_arg "Trace.set_capacity";
  t.ring <- Array.make capacity empty;
  t.head <- 0;
  t.len <- 0;
  t.dropped <- 0

let emit ?(value = 0L) t ph cat name =
  let cap = Array.length t.ring in
  if t.len = cap then t.dropped <- t.dropped + 1 else t.len <- t.len + 1;
  t.ring.(t.head) <-
    {
      ph;
      name;
      cat;
      ts = Engine.now t.engine;
      tid = Engine.current_fid t.engine;
      value;
      req = Engine.current_req t.engine;
    };
  t.head <- (t.head + 1) mod cap

(** Record a severity-tagged note. Always on: notes bypass [enabled] and,
    like every emit, cost no virtual time. *)
let note ?(sev = Info) t ~kind msg = emit t (Note sev) kind msg

let is_note e = match e.ph with Note _ -> true | _ -> false

(* Debug-mode open-span bookkeeping. Only spans actually emitted are
   tracked, so the check costs nothing unless both tracing and debug are
   on. *)
let track_begin t name =
  let fid = Engine.current_fid t.engine in
  if fid >= 0 then
    match Hashtbl.find_opt t.open_spans fid with
    | Some stack -> stack := name :: !stack
    | None -> Hashtbl.replace t.open_spans fid (ref [ name ])

let track_end t name =
  let fid = Engine.current_fid t.engine in
  if fid >= 0 then
    match Hashtbl.find_opt t.open_spans fid with
    | Some ({ contents = top :: rest } as stack) when top = name ->
        stack := rest;
        if rest = [] then Hashtbl.remove t.open_spans fid
    | Some { contents = stack } ->
        raise
          (Unbalanced_span
             (Printf.sprintf
                "span_end %S on fiber %d does not match open span%s [%s]" name
                fid
                (if stack = [] then "" else "s")
                (String.concat "; " stack)))
    | None ->
        raise
          (Unbalanced_span
             (Printf.sprintf "span_end %S on fiber %d with no span open" name
                fid))

let fiber_exit_check t fid =
  match Hashtbl.find_opt t.open_spans fid with
  | Some { contents = stack } when stack <> [] ->
      Hashtbl.remove t.open_spans fid;
      raise
        (Unbalanced_span
           (Printf.sprintf "fiber %d exited with open span%s [%s]" fid
              (if List.length stack = 1 then "" else "s")
              (String.concat "; " stack)))
  | _ -> ()

(** Debug mode: track begin/end balance per fiber and raise
    {!Unbalanced_span} on a mismatched end or a fiber exiting with a span
    still open (instead of silently truncating the trace). Installs the
    engine's fiber-exit hook while on. *)
let set_debug t b =
  t.debug <- b;
  Hashtbl.reset t.open_spans;
  Engine.set_fiber_exit_hook t.engine
    (if b then Some (fun fid -> fiber_exit_check t fid) else None)

let debug t = t.debug

let span_begin t ?(cat = "") name =
  if t.enabled then begin
    emit t Begin cat name;
    if t.debug then track_begin t name
  end

let span_end t ?(cat = "") name =
  if t.enabled then begin
    emit t End cat name;
    if t.debug then track_end t name
  end

let instant t ?(cat = "") name = if t.enabled then emit t Instant cat name

(** Record a sample of a named counter time-series (queue depth, dirty
    pages, ...). Exports as a Chrome "C" event, which Perfetto renders as a
    counter track alongside the spans. *)
let counter t ?(cat = "") name value =
  if t.enabled then emit ~value t Counter cat name

(** Open a flow edge at the current (fiber, time): returns the edge id to
    hand to whoever continues the work. 0 when disabled — [flow_end]
    ignores it. *)
let flow_begin t ?(cat = "") name =
  if not t.enabled then 0L
  else begin
    t.next_flow <- Int64.add t.next_flow 1L;
    emit ~value:t.next_flow t Flow_start cat name;
    t.next_flow
  end

(** Close a flow edge on the receiving fiber. An id of 0 (from a disabled
    [flow_begin]) is a no-op. *)
let flow_end t ?(cat = "") name id =
  if t.enabled && id <> 0L then emit ~value:id t Flow_finish cat name

let with_span t ?cat name f =
  if not t.enabled then f ()
  else begin
    span_begin t ?cat name;
    match f () with
    | v ->
        span_end t ?cat name;
        v
    | exception exn ->
        span_end t ?cat name;
        raise exn
  end

(** Events oldest-first (and therefore nondecreasing in [ts]). *)
let events t =
  let cap = Array.length t.ring in
  let first = (t.head - t.len + cap * 2) mod cap in
  List.init t.len (fun i -> t.ring.((first + i) mod cap))

let notes t = List.filter is_note (events t)

(* ------------------------------------------------------------------ *)
(* Causal reconstruction: regroup a flat event stream per request and   *)
(* check each request forms one connected DAG.                          *)

module Causal = struct
  type request = {
    req : int64;
    fibers : int list;  (** distinct fids that emitted for this request *)
    spans : int;  (** Begin events *)
    flow_edges : int;  (** matched start/finish pairs *)
    orphan_finishes : int;  (** finishes whose edge has no start here *)
    connected : bool;
        (** all fibers reachable from one another via flow edges *)
  }

  (* Union-find over fids, local to one request's reconstruction. *)
  let rec find parent x =
    match Hashtbl.find_opt parent x with
    | Some p when p <> x ->
        let r = find parent p in
        Hashtbl.replace parent x r;
        r
    | _ -> x

  let union parent a b =
    let ra = find parent a and rb = find parent b in
    if ra <> rb then Hashtbl.replace parent ra rb

  let reconstruct_one req evs =
    let parent = Hashtbl.create 16 in
    let touch fid = if not (Hashtbl.mem parent fid) then Hashtbl.replace parent fid fid in
    let starts = Hashtbl.create 16 in  (* edge id -> start tid *)
    let spans = ref 0 in
    List.iter
      (fun e ->
        touch e.tid;
        match e.ph with
        | Begin -> incr spans
        | Flow_start -> Hashtbl.replace starts e.value e.tid
        | _ -> ())
      evs;
    let flow_edges = ref 0 and orphans = ref 0 in
    List.iter
      (fun e ->
        match e.ph with
        | Flow_finish -> (
            match Hashtbl.find_opt starts e.value with
            | Some start_tid ->
                incr flow_edges;
                union parent start_tid e.tid
            | None -> incr orphans)
        | _ -> ())
      evs;
    let fibers = Hashtbl.fold (fun fid _ acc -> fid :: acc) parent [] in
    let connected =
      match fibers with
      | [] -> true
      | first :: rest ->
          let r = find parent first in
          List.for_all (fun f -> find parent f = r) rest
    in
    {
      req;
      fibers = List.sort compare fibers;
      spans = !spans;
      flow_edges = !flow_edges;
      orphan_finishes = !orphans;
      connected;
    }

  (** Group [evs] by request id (ignoring reqid-0 background events and
      notes) and reconstruct each request's causal graph: fibers are nodes,
      matched flow edges connect them. *)
  let requests evs =
    let by_req : (int64, event list ref) Hashtbl.t = Hashtbl.create 256 in
    let order = ref [] in
    List.iter
      (fun (e : event) ->
        if e.req <> 0L && not (is_note e) then
          match Hashtbl.find_opt by_req e.req with
          | Some l -> l := e :: !l
          | None ->
              Hashtbl.replace by_req e.req (ref [ e ]);
              order := e.req :: !order)
      evs;
    List.rev_map
      (fun req ->
        let evs = List.rev !(Hashtbl.find by_req req) in
        reconstruct_one req evs)
      !order

  (** Fraction of requests whose graph is connected with no orphan
      finishes (1.0 when there are no requests at all). *)
  let connected_ratio evs =
    let rs = requests evs in
    match rs with
    | [] -> 1.0
    | _ ->
        let good =
          List.length
            (List.filter (fun r -> r.connected && r.orphan_finishes = 0) rs)
        in
        float_of_int good /. float_of_int (List.length rs)
end

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON export.                                     *)

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* Chrome timestamps are microseconds; keep full nanosecond precision as a
   decimal fraction so virtual-time ordering survives the unit change. *)
let add_ts buf ts =
  Buffer.add_string buf
    (Printf.sprintf "%Ld.%03Ld" (Int64.div ts 1000L)
       (Int64.rem ts 1000L))

let phase_letter = function
  | Begin -> "B"
  | End -> "E"
  | Instant | Note _ -> "i"
  | Counter -> "C"
  | Flow_start -> "s"
  | Flow_finish -> "f"

let add_event buf ~pid e =
  Buffer.add_string buf "{\"name\":\"";
  escape_into buf e.name;
  Buffer.add_string buf "\",\"cat\":\"";
  escape_into buf (if e.cat = "" then "sim" else e.cat);
  Buffer.add_string buf "\",\"ph\":\"";
  Buffer.add_string buf (phase_letter e.ph);
  Buffer.add_string buf "\",\"ts\":";
  add_ts buf e.ts;
  Buffer.add_string buf (Printf.sprintf ",\"pid\":%d,\"tid\":%d" pid e.tid);
  (match e.ph with
  | Instant -> Buffer.add_string buf ",\"s\":\"t\"}"
  | Note sev ->
      Buffer.add_string buf
        (Printf.sprintf ",\"s\":\"t\",\"args\":{\"sev\":\"%s\"}}"
           (severity_label sev))
  | Counter ->
      (* args key = series name within the track named by the event *)
      Buffer.add_string buf ",\"args\":{\"value\":";
      Buffer.add_string buf (Int64.to_string e.value);
      Buffer.add_string buf "}}"
  | Flow_start ->
      Buffer.add_string buf (Printf.sprintf ",\"id\":%Ld" e.value);
      if e.req <> 0L then
        Buffer.add_string buf
          (Printf.sprintf ",\"args\":{\"reqid\":%Ld}" e.req);
      Buffer.add_char buf '}'
  | Flow_finish ->
      (* bp:"e" binds the arrow to the enclosing slice's end, the Perfetto
         convention for completion-style flows *)
      Buffer.add_string buf
        (Printf.sprintf ",\"id\":%Ld,\"bp\":\"e\"" e.value);
      if e.req <> 0L then
        Buffer.add_string buf
          (Printf.sprintf ",\"args\":{\"reqid\":%Ld}" e.req);
      Buffer.add_char buf '}'
  | Begin when e.req <> 0L ->
      Buffer.add_string buf
        (Printf.sprintf ",\"args\":{\"reqid\":%Ld}}" e.req)
  | _ -> Buffer.add_char buf '}')

(** Append this tracer's events to [buf] as comma-separated JSON objects
    (no surrounding brackets), for embedding several runs — each under its
    own [pid] — into one trace file. [first] tells the writer whether a
    leading comma is needed; returns whether anything was written. *)
let write_events buf ~pid ?process_name ~first t =
  let sep = ref (not first) in
  let wrote = ref false in
  let comma () =
    if !sep then Buffer.add_char buf ',';
    sep := true;
    wrote := true
  in
  (match process_name with
  | Some pname ->
      comma ();
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\""
           pid);
      escape_into buf pname;
      Buffer.add_string buf "\"}}"
  | None -> ());
  List.iter
    (fun e ->
      comma ();
      add_event buf ~pid e)
    (events t);
  !wrote

(** The whole tracer as one self-contained Chrome trace JSON document. *)
let to_chrome_json ?(pid = 1) ?process_name t =
  let buf = Buffer.create 4096 in
  Buffer.add_char buf '[';
  ignore (write_events buf ~pid ?process_name ~first:true t);
  Buffer.add_char buf ']';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Flight-recorder dumps.                                              *)

(** Render the retained notes (and, for a nonzero [req], every event of
    that request) to text. *)
let render t ~reason ~req =
  let buf = Buffer.create 4096 in
  let notes = notes t in
  Printf.bprintf buf
    "flight-recorder dump: %s\nvirtual time: %Ld ns\nreqid: %Ld\n\
     -- ring (%d notes retained, %d older events dropped) --\n"
    reason (Engine.now t.engine) req (List.length notes) t.dropped;
  List.iter
    (fun e ->
      match e.ph with
      | Note sev ->
          Printf.bprintf buf "%12Ld ns  fid=%-5d req=%-6Ld %-5s %-10s %s\n"
            e.ts e.tid e.req (severity_label sev) e.cat e.name
      | _ -> ())
    notes;
  if req <> 0L then begin
    let evs = List.filter (fun e -> e.req = req) (events t) in
    Printf.bprintf buf "-- causal trace for req %Ld (%d events) --\n" req
      (List.length evs);
    List.iter
      (fun e ->
        Printf.bprintf buf "%12Ld ns  fid=%-5d %s %s%s%s\n" e.ts e.tid
          (match e.ph with Note sev -> severity_label sev | ph -> phase_letter ph)
          (if e.cat = "" then "" else e.cat ^ ":")
          e.name
          (match e.ph with
          | Flow_start | Flow_finish -> Printf.sprintf " edge=%Ld" e.value
          | Counter -> Printf.sprintf " value=%Ld" e.value
          | _ -> ""))
      evs
  end;
  Buffer.contents buf

(** Triggered dump: note the trigger, then render the notes plus the
    causal trace of the current request and keep it as [last_dump]. At
    most [max_dumps] per tracer; returns whether a dump was produced. *)
let trigger t reason =
  t.dumps < max_dumps
  && begin
       note ~sev:Error t ~kind:"trigger" reason;
       t.dumps <- t.dumps + 1;
       t.last_dump <-
         Some (reason, render t ~reason ~req:(Engine.current_req t.engine));
       true
     end

let dump_count t = t.dumps
let last_dump t = t.last_dump
