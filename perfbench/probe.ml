(** The benchmark's own instrumentation. Every call it makes into a
    stack, every op and every set-up phase is timed in virtual and host
    time. In a traced run each of them is also kept as a span in memory,
    written out once at exit. Recording reads clocks only, so it cannot
    move virtual time. *)

exception Failed of string
(** An op or check went wrong: an unexpected errno or a checksum
    mismatch. It counts as one failed op. *)

type span = {
  name : string;
  id : int;
  parent : int;  (** enclosing op or set-up phase; 0 = none *)
  fiber : int;  (** client fiber index; -1 for the set-up fiber *)
  op : int;  (** op id; 0 outside ops *)
  v0 : int;
  v1 : int;  (** virtual ns *)
  h0 : float;
  h1 : float;  (** host s *)
}

type t = {
  machine : Kernel.Machine.t;
  traced : bool;
  mutable os : Kernel.Os.t option;  (** current mount *)
  mutable spans : span list;  (** newest first; only when traced *)
  mutable stride : int;  (** keep the spans of every [stride]-th op only *)
  mutable next_id : int;
  mutable window : bool;  (** inside the measured window *)
  mutable written : int;  (** user bytes written in the window *)
  calls : (string, Samples.t) Hashtbl.t;
      (** per-syscall virtual latency, window only *)
}

(** A fiber's position in the span tree. *)
type ctx = {
  p : t;
  fiber : int;
  mutable op : int;
  mutable parent : int;
  mutable keep : bool;  (** record spans (false inside unsampled ops) *)
}

let create machine ~traced =
  {
    machine;
    traced;
    os = None;
    spans = [];
    stride = 1;
    next_id = 1;
    window = false;
    written = 0;
    calls = Hashtbl.create 8;
  }

let ctx p ~fiber = { p; fiber; op = 0; parent = 0; keep = true }
let vnow p = Int64.to_int (Kernel.Machine.now p.machine)

let os p =
  match p.os with Some os -> os | None -> raise (Failed "not mounted")

(* Run [f] as a span named [name] under the fiber's current parent; returns
   [f]'s result and the span's virtual and host durations. *)
let span c name f =
  let p = c.p in
  let id = p.next_id in
  p.next_id <- id + 1;
  let parent = c.parent in
  let v0 = vnow p and h0 = Unix.gettimeofday () in
  c.parent <- id;
  let finish () =
    c.parent <- parent;
    let v1 = vnow p and h1 = Unix.gettimeofday () in
    if p.traced && c.keep then
      p.spans <-
        { name; id; parent; fiber = c.fiber; op = c.op; v0; v1; h0; h1 }
        :: p.spans;
    (v1 - v0, h1 -. h0)
  in
  match f () with
  | r -> (r, finish ())
  | exception e ->
      ignore (finish ());
      raise e

(** One syscall. An [Error] is unexpected in every workload, so it raises
    {!Failed}. *)
let sys c name f =
  let r, (vns, _) = span c name (fun () -> f (os c.p)) in
  if c.p.window then begin
    let s =
      match Hashtbl.find_opt c.p.calls name with
      | Some s -> s
      | None ->
          let s = Samples.create () in
          Hashtbl.replace c.p.calls name s;
          s
    in
    Samples.add s vns
  end;
  match r with
  | Ok v -> v
  | Error e -> raise (Failed (name ^ ": " ^ Kernel.Errno.to_string e))

(** A syscall writing [data]; inside the window its bytes count as user
    bytes written. *)
let sys_write c name data f =
  let n = sys c name f in
  if c.p.window then c.p.written <- c.p.written + Bytes.length data;
  n

(** One op of the window; returns its virtual latency. *)
let op c ~id kind f =
  c.op <- id;
  c.keep <- id mod c.p.stride = 0;
  let (), (vns, _) = span c kind f in
  c.op <- 0;
  c.keep <- true;
  vns

(** One set-up phase; returns [f]'s result and its host seconds. *)
let phase c name f =
  let r, (_, hs) = span c name f in
  (r, hs)

(** The spans of all stacks as Chrome trace-event JSON (one pid per
    stack, one tid per fiber; ts/dur in virtual µs, host times in args). *)
let trace_json (stacks : (string * t) list) =
  let open Util.Json in
  let us ns = Float (float_of_int ns /. 1e3) in
  let events =
    List.concat
      (List.mapi
         (fun pid (name, p) ->
           Obj
             [
               ("name", String "process_name");
               ("ph", String "M");
               ("pid", Int pid);
               ("args", Obj [ ("name", String name) ]);
             ]
           :: List.rev_map
                (fun s ->
                  Obj
                    [
                      ("name", String s.name);
                      ("ph", String "X");
                      ("pid", Int pid);
                      ("tid", Int s.fiber);
                      ("ts", us s.v0);
                      ("dur", us (s.v1 - s.v0));
                      ( "args",
                        Obj
                          [
                            ("id", Int s.id);
                            ("parent", Int s.parent);
                            ("op", Int s.op);
                            ("host_start_s", Float s.h0);
                            ("host_dur_s", Float (s.h1 -. s.h0));
                          ] );
                    ])
                p.spans)
         stacks)
  in
  to_string (Obj [ ("traceEvents", List events) ])
