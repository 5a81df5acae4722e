(** The multi-tenant file server: a connection acceptor, per-client
    sessions (one fiber per connection, one per in-flight request), the
    open/read/write/commit/readdir protocol executed against {!Kernel.Os},
    lease-based cache coherence ({!Lease}) and weighted-fair per-tenant
    scheduling ({!Qos}).

    Life of a request: the session fiber decodes the frame and spawns a
    handler fiber; the handler resolves paths and acquires the leases the
    op needs (waiting out recalls *before* taking an execution slot, so a
    blocked recall can never starve the slot pool), enters the WFQ gate,
    executes against the VFS, releases its pins, and sends the reply.

    Attr reads ([Getattr], [Lookup], [Read]) take a transient read lease
    on the target inode, which forces any other session's dirty
    write-delegated cache to be flushed first — the server never serves an
    attribute or byte that a client cache has superseded. *)

module Errno = Kernel.Errno

type config = {
  tenants : (string * Qos.tclass) list;
  max_inflight_total : int;  (** global execution-slot pool *)
}

let default_config =
  {
    tenants = [ ("default", Qos.default_class) ];
    max_inflight_total = 32;
  }

type session = { s_id : int; s_tenant : string; s_conn : Wire.conn }

type t = {
  sv_machine : Kernel.Machine.t;
  sv_os : Kernel.Os.t;
  sv_listener : Wire.listener;
  sv_qos : Qos.t;
  sv_leases : Lease.t;
  sv_paths : (int, string) Hashtbl.t;  (** ino -> path (file handle cache) *)
  sv_fds : (int, int) Hashtbl.t;  (** ino -> server-side open fd *)
  sv_change : (int, int) Hashtbl.t;  (** ino -> change attribute *)
  sv_sessions : (int, session) Hashtbl.t;
  mutable sv_next_sid : int;
  sv_root : int;
  mutable sv_self_mutating : int;
      (** depth of server-initiated mutations, so the VFS modify hook can
          tell an underneath write from the server's own *)
  mutable sv_stopped : bool;
  sv_req_lat : Sim.Stats.Histogram.t;
  sv_malformed : Sim.Stats.Counter.t;
  sv_slo : Slo.t;
}

let ( let* ) = Result.bind

let machine t = t.sv_machine
let listener t = t.sv_listener
let qos t = t.sv_qos
let leases t = t.sv_leases
let slo t = t.sv_slo
let root_ino t = t.sv_root

let change_of t ino =
  match Hashtbl.find_opt t.sv_change ino with Some c -> c | None -> 0

let bump_change t ino = Hashtbl.replace t.sv_change ino (change_of t ino + 1)

let kind_code = function
  | Kernel.Vfs.Reg -> 0
  | Kernel.Vfs.Dir -> 1
  | Kernel.Vfs.Symlink -> 2

let attr_of t (st : Kernel.Vfs.stat) : Proto.attr =
  {
    ino = st.st_ino;
    kind = kind_code st.st_kind;
    size = st.st_size;
    nlink = st.st_nlink;
    change = change_of t st.st_ino;
  }

let path_of t ino : (string, Errno.t) result =
  if ino = t.sv_root then Ok "/"
  else
    match Hashtbl.find_opt t.sv_paths ino with
    | Some p -> Ok p
    | None -> Error Errno.ESTALE

let join dir name = if dir = "/" then "/" ^ name else dir ^ "/" ^ name

(* Run a server-initiated mutation with the modify hook told it is us. *)
let with_self t f =
  t.sv_self_mutating <- t.sv_self_mutating + 1;
  Fun.protect ~finally:(fun () -> t.sv_self_mutating <- t.sv_self_mutating - 1) f

let fd_of t ino : (int, Errno.t) result =
  match Hashtbl.find_opt t.sv_fds ino with
  | Some fd -> Ok fd
  | None ->
      let* path = path_of t ino in
      let* fd = Kernel.Os.open_ t.sv_os path Kernel.Os.rdwr in
      Hashtbl.replace t.sv_fds ino fd;
      Ok fd

let stat_attr t path : (Proto.attr, Errno.t) result =
  let* st = Kernel.Os.stat t.sv_os path in
  Ok (attr_of t st)

(* ------------------------------------------------------------------ *)
(* Request execution (handler fiber, slot held)                        *)
(* ------------------------------------------------------------------ *)

let exec t (req : Proto.request) : Proto.reply =
  let reply_of = function Ok r -> r | Error e -> Proto.R_err e in
  match req with
  | Proto.Getattr { ino } ->
      reply_of
        (let* path = path_of t ino in
         let* a = stat_attr t path in
         Ok (Proto.R_attr a))
  | Proto.Lookup { dir; name } ->
      reply_of
        (let* dpath = path_of t dir in
         let p = join dpath name in
         let* st = Kernel.Os.stat t.sv_os p in
         Hashtbl.replace t.sv_paths st.st_ino p;
         Ok (Proto.R_attr (attr_of t st)))
  | Proto.Mkdir { dir; name } ->
      reply_of
        (let* dpath = path_of t dir in
         let p = join dpath name in
         let* () = Kernel.Os.mkdir t.sv_os p in
         let* st = Kernel.Os.stat t.sv_os p in
         Hashtbl.replace t.sv_paths st.st_ino p;
         Ok (Proto.R_attr (attr_of t st)))
  | Proto.Read { ino; off; len } ->
      reply_of
        (let* fd = fd_of t ino in
         let* data = Kernel.Os.pread t.sv_os fd ~pos:off ~len in
         let* st = Kernel.Os.fstat t.sv_os fd in
         Ok (Proto.R_read { rdata = data; rattr = attr_of t st }))
  | Proto.Write { ino; off; data; stable } ->
      reply_of
        (let* fd = fd_of t ino in
         let* n = with_self t (fun () -> Kernel.Os.pwrite t.sv_os fd ~pos:off data) in
         let* () =
           if stable then with_self t (fun () -> Kernel.Os.fsync t.sv_os fd)
           else Ok ()
         in
         let* st = Kernel.Os.fstat t.sv_os fd in
         Ok (Proto.R_write { count = n; wattr = attr_of t st }))
  | Proto.Commit { ino } ->
      reply_of
        (let* fd = fd_of t ino in
         let* () = with_self t (fun () -> Kernel.Os.fsync t.sv_os fd) in
         Ok Proto.R_ok)
  | Proto.Readdir { ino } ->
      reply_of
        (let* path = path_of t ino in
         let* des = Kernel.Os.readdir t.sv_os path in
         let des =
           List.map
             (fun (d : Kernel.Vfs.dirent) ->
               if d.d_name <> "." && d.d_name <> ".." then
                 Hashtbl.replace t.sv_paths d.d_ino (join path d.d_name);
               (d.d_name, d.d_ino, kind_code d.d_kind))
             des
         in
         Ok (Proto.R_dirents des))
  | Proto.Readdir_filter { dir; prog } ->
      reply_of
        (let* path = path_of t dir in
         let* des = Kernel.Os.readdir_filtered t.sv_os path ~prog in
         Ok
           (Proto.R_dirents_plus
              (List.map
                 (fun ((d : Kernel.Vfs.dirent), (st : Kernel.Vfs.stat)) ->
                   if d.d_name <> "." && d.d_name <> ".." then
                     Hashtbl.replace t.sv_paths d.d_ino (join path d.d_name);
                   (d.d_name, attr_of t st))
                 des)))
  | Proto.Pushdown_get { prog; key } ->
      reply_of
        (let* v = Kernel.Os.pushdown_get t.sv_os ~prog ~key in
         Ok (Proto.R_value v))
  | Proto.Unlink { dir; name } ->
      reply_of
        (let* dpath = path_of t dir in
         let p = join dpath name in
         let* st = Kernel.Os.stat t.sv_os p in
         (* Pop the handle tables before anything yields: both the
            unlink and the fd close sleep on the log, and once the ino
            is free a concurrent Create can reuse and re-register it —
            a drop performed after resuming would wipe the new file's
            entries (the Create allocates before it can take the new
            ino's lease, so our lease pin does not order it). *)
         let fd = Hashtbl.find_opt t.sv_fds st.st_ino in
         let change = Hashtbl.find_opt t.sv_change st.st_ino in
         Hashtbl.remove t.sv_fds st.st_ino;
         Hashtbl.remove t.sv_paths st.st_ino;
         Hashtbl.remove t.sv_change st.st_ino;
         match with_self t (fun () -> Kernel.Os.unlink t.sv_os p) with
         | Error e ->
             (* nothing was freed, so the ino cannot have been reused:
                restore the handles *)
             (match fd with
             | Some fd -> Hashtbl.replace t.sv_fds st.st_ino fd
             | None -> ());
             (match change with
             | Some c -> Hashtbl.replace t.sv_change st.st_ino c
             | None -> ());
             Hashtbl.replace t.sv_paths st.st_ino p;
             Error e
         | Ok () ->
             (match fd with
             | Some fd -> ignore (Kernel.Os.close t.sv_os fd)
             | None -> ());
             Ok Proto.R_ok)
  | Proto.Open _ | Proto.Create _ | Proto.Release _ | Proto.Attach _
  | Proto.Lease_return _ | Proto.Detach ->
      (* handled outside [exec] *)
      Proto.R_err Errno.EINVAL

(* ------------------------------------------------------------------ *)
(* Handler fiber: leases, scheduling, reply                            *)
(* ------------------------------------------------------------------ *)

let request_cost (req : Proto.request) =
  let payload =
    match req with
    | Proto.Read { len; _ } -> len
    | Proto.Write { data; _ } -> Bytes.length data
    | _ -> 0
  in
  1.0 +. (float_of_int payload /. 65536.)

let send_reply sess xid reply =
  Wire.send_smsg sess.s_conn (Proto.encode_smsg (Proto.Reply { xid; reply }))

(* The lease an op needs, with the target ino resolved ahead of time.
   Resolution itself is a read of stable namespace state — only the data
   and size attributes are delegated to clients, so it needs no lease. *)
let lease_plan t (req : Proto.request) : (int * Lease.kind) option =
  let resolve dir name =
    match path_of t dir with
    | Error _ -> None
    | Ok dpath -> (
        match Kernel.Os.stat t.sv_os (join dpath name) with
        | Ok st -> Some st.st_ino
        | Error _ -> None)
  in
  match req with
  | Proto.Getattr { ino } | Proto.Read { ino; _ } | Proto.Commit { ino } ->
      Some (ino, Lease.Read)
  | Proto.Write { ino; _ } -> Some (ino, Lease.Write)
  | Proto.Lookup { dir; name } -> (
      match resolve dir name with
      | Some ino -> Some (ino, Lease.Read)
      | None -> None)
  | Proto.Unlink { dir; name } -> (
      match resolve dir name with
      | Some ino -> Some (ino, Lease.Write)
      | None -> None)
  | _ -> None

let handle t (sess : session) xid (req : Proto.request) =
  let t0 = Kernel.Machine.now t.sv_machine in
  let tenant = sess.s_tenant in
  Sim.Trace.note (Kernel.Machine.tracer t.sv_machine) ~kind:"server"
    (Printf.sprintf "%s xid=%d tenant=%s" (Proto.request_name req) xid tenant);
  let cost = request_cost req in
  let reply =
    match req with
    | Proto.Open { ino; write } -> (
        match path_of t ino with
        | Error e -> Proto.R_err e
        | Ok path -> (
            let kind = if write then Lease.Write else Lease.Read in
            Lease.acquire t.sv_leases ~session:sess.s_id ~ino ~durable:true kind;
            let r =
              Qos.with_slot t.sv_qos ~tenant ~cost (fun () ->
                  Kernel.Machine.with_layer t.sv_machine "server" (fun () ->
                      match stat_attr t path with
                      | Ok a ->
                          Proto.R_open
                            {
                              oattr = a;
                              olease =
                                (if write then Proto.L_write else Proto.L_read);
                            }
                      | Error e -> Proto.R_err e))
            in
            Lease.release_pin t.sv_leases ~session:sess.s_id ~ino;
            match r with
            | Proto.R_err _ as e ->
                Lease.unlease t.sv_leases ~session:sess.s_id ~ino;
                e
            | r -> r))
    | Proto.Create { dir; name; write } -> (
        let created =
          Qos.with_slot t.sv_qos ~tenant ~cost (fun () ->
              Kernel.Machine.with_layer t.sv_machine "server" (fun () ->
                  let* dpath = path_of t dir in
                  let p = join dpath name in
                  let* fd =
                    with_self t (fun () ->
                        Kernel.Os.open_ t.sv_os p
                          Kernel.Os.(creat rdwr))
                  in
                  let* st = Kernel.Os.fstat t.sv_os fd in
                  Hashtbl.replace t.sv_paths st.st_ino p;
                  Hashtbl.replace t.sv_fds st.st_ino fd;
                  Ok (st.st_ino, attr_of t st)))
        in
        match created with
        | Error e -> Proto.R_err e
        | Ok (ino, a) ->
            let kind = if write then Lease.Write else Lease.Read in
            Lease.acquire t.sv_leases ~session:sess.s_id ~ino ~durable:true kind;
            Lease.release_pin t.sv_leases ~session:sess.s_id ~ino;
            Proto.R_open
              {
                oattr = a;
                olease = (if write then Proto.L_write else Proto.L_read);
              })
    | Proto.Release { ino } ->
        Lease.unlease t.sv_leases ~session:sess.s_id ~ino;
        Proto.R_ok
    | req -> (
        match lease_plan t req with
        | None ->
            Qos.with_slot t.sv_qos ~tenant ~cost (fun () ->
                Kernel.Machine.with_layer t.sv_machine "server" (fun () ->
                    exec t req))
        | Some (ino, kind) ->
            Lease.acquire t.sv_leases ~session:sess.s_id ~ino kind;
            Fun.protect
              ~finally:(fun () ->
                Lease.release_pin t.sv_leases ~session:sess.s_id ~ino)
              (fun () ->
                Qos.with_slot t.sv_qos ~tenant ~cost (fun () ->
                    Kernel.Machine.with_layer t.sv_machine "server" (fun () ->
                        exec t req))))
  in
  let lat = Int64.sub (Kernel.Machine.now t.sv_machine) t0 in
  Sim.Stats.Histogram.record t.sv_req_lat lat;
  Slo.record t.sv_slo ~tenant lat;
  send_reply sess xid reply;
  (* Only once the granting reply is on the wire may the lease be
     recalled — a recall overtaking its grant would be acked by a client
     that does not yet know it holds the lease. *)
  match reply with
  | Proto.R_open { oattr; _ } ->
      Lease.grant_ready t.sv_leases ~session:sess.s_id ~ino:oattr.Proto.ino
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Sessions and the acceptor                                           *)
(* ------------------------------------------------------------------ *)

let recall_session t ~session ~ino =
  match Hashtbl.find_opt t.sv_sessions session with
  | None ->
      (* session gone: its durable leases are dropped by teardown *)
      ()
  | Some sess ->
      Kernel.Machine.spawn ~name:"server-recall" t.sv_machine (fun () ->
          Wire.send_smsg sess.s_conn
            (Proto.encode_smsg (Proto.Recall { ino })))

let serve_conn t (conn : Wire.conn) =
  let sess = ref None in
  let cleanup () =
    match !sess with
    | None -> ()
    | Some s ->
        Lease.release_session t.sv_leases ~session:s.s_id;
        Hashtbl.remove t.sv_sessions s.s_id;
        sess := None
  in
  let rec loop () =
    match Wire.recv_request conn with
    | None -> cleanup ()
    | Some bytes ->
        (match Proto.decode_request bytes with
        | Error _ ->
            Sim.Stats.Counter.incr t.sv_malformed;
            Wire.send_smsg conn
              (Proto.encode_smsg
                 (Proto.Reply { xid = 0; reply = Proto.R_err Kernel.Errno.EINVAL }))
        | Ok (xid, req) -> (
            match (req, !sess) with
            | Proto.Attach { tenant }, None ->
                if Qos.has_tenant t.sv_qos tenant then begin
                  let sid = t.sv_next_sid in
                  t.sv_next_sid <- sid + 1;
                  let s = { s_id = sid; s_tenant = tenant; s_conn = conn } in
                  Hashtbl.replace t.sv_sessions sid s;
                  sess := Some s;
                  let reply =
                    match stat_attr t "/" with
                    | Ok a -> Proto.R_attr a
                    | Error e -> Proto.R_err e
                  in
                  Wire.send_smsg conn
                    (Proto.encode_smsg (Proto.Reply { xid; reply }))
                end
                else
                  Wire.send_smsg conn
                    (Proto.encode_smsg
                       (Proto.Reply { xid; reply = Proto.R_err Kernel.Errno.EINVAL }))
            | _, None | Proto.Attach _, Some _ ->
                Wire.send_smsg conn
                  (Proto.encode_smsg
                     (Proto.Reply { xid; reply = Proto.R_err Kernel.Errno.EINVAL }))
            | Proto.Lease_return { ino }, Some s ->
                Lease.unlease t.sv_leases ~session:s.s_id ~ino;
                send_reply s xid Proto.R_ok
            | Proto.Detach, Some s ->
                send_reply s xid Proto.R_ok;
                Wire.close conn
            | req, Some s ->
                (* Mint the causal request id from the wire xid arrival:
                   set it on the session fiber so the handler fiber
                   inherits it at spawn, and stitch the cross-fiber hop
                   with a dispatch flow edge. The session fiber drops the
                   id right after — decoding the next request is not part
                   of this one. *)
                let eng = Kernel.Machine.engine t.sv_machine in
                let tr = Kernel.Machine.tracer t.sv_machine in
                Sim.Engine.set_current_req eng (Sim.Engine.next_req_id eng);
                let edge = Sim.Trace.flow_begin tr ~cat:"server" "server:dispatch" in
                Kernel.Machine.spawn ~name:"server-op" t.sv_machine (fun () ->
                    Sim.Trace.flow_end tr ~cat:"server" "server:dispatch" edge;
                    handle t s xid req);
                Sim.Engine.set_current_req eng 0L));
        loop ()
  in
  loop ()

(** Bring up the server on an already-mounted stack. Must run inside a
    simulation fiber. Spawns the acceptor; clients reach it through
    {!listener}. *)
let start machine os (config : config) : t =
  let listener = Wire.listen machine in
  let qos = Qos.create machine ~max_total:config.max_inflight_total config.tenants in
  let leases = Lease.create machine in
  let slo = Slo.create machine (List.map fst config.tenants) in
  let root =
    match Kernel.Os.stat os "/" with
    | Ok st -> st.Kernel.Vfs.st_ino
    | Error e -> failwith ("server: cannot stat root: " ^ Kernel.Errno.to_string e)
  in
  let t =
    {
      sv_machine = machine;
      sv_os = os;
      sv_listener = listener;
      sv_qos = qos;
      sv_leases = leases;
      sv_paths = Hashtbl.create 1024;
      sv_fds = Hashtbl.create 256;
      sv_change = Hashtbl.create 1024;
      sv_sessions = Hashtbl.create 64;
      sv_next_sid = 1;
      sv_root = root;
      sv_self_mutating = 0;
      sv_stopped = false;
      sv_req_lat = Kernel.Machine.histogram machine "server_req_lat";
      sv_malformed = Kernel.Machine.counter machine "server_malformed";
      sv_slo = slo;
    }
  in
  Lease.set_recall leases (fun ~session ~ino -> recall_session t ~session ~ino);
  Kernel.Machine.register_inspector machine ~name:"leases" (fun () ->
      Lease.inspect leases);
  Kernel.Machine.register_inspector machine ~name:"qos" (fun () ->
      Qos.inspect qos);
  Kernel.Machine.register_inspector machine ~name:"slo" (fun () ->
      Slo.inspect slo);
  Kernel.Machine.register_inspector machine ~name:"sessions" (fun () ->
      Util.Json.Obj [ ("count", Util.Json.Int (Hashtbl.length t.sv_sessions)) ]);
  (* Lease hook: a write underneath the server (not through a session)
     bumps the change attribute and breaks the leases on that inode, as if
     a conflicting local writer had opened the file. *)
  Kernel.Vfs.set_modify_hook (Kernel.Os.vfs os)
    (Some
       (fun ino ->
         bump_change t ino;
         if t.sv_self_mutating = 0 && not t.sv_stopped then
           Kernel.Machine.spawn ~name:"server-break-lease" t.sv_machine
             (fun () ->
               Lease.acquire t.sv_leases ~session:(-1) ~ino Lease.Write;
               Lease.release_pin t.sv_leases ~session:(-1) ~ino)));
  Kernel.Machine.spawn ~name:"server-accept" machine (fun () ->
      let rec accept_loop () =
        match Wire.accept listener with
        | None -> ()
        | Some conn ->
            Kernel.Machine.spawn ~name:"server-session" machine (fun () ->
                serve_conn t conn);
            accept_loop ()
      in
      accept_loop ());
  t

(** Shut down: stop accepting, drop the hook, close every session. Safe
    once all clients have detached. *)
let stop t =
  t.sv_stopped <- true;
  Kernel.Vfs.set_modify_hook (Kernel.Os.vfs t.sv_os) None;
  Wire.close_listener t.sv_listener;
  Hashtbl.iter (fun _ s -> Wire.close s.s_conn) t.sv_sessions;
  Hashtbl.iter (fun _ fd -> ignore (Kernel.Os.close t.sv_os fd)) t.sv_fds;
  Hashtbl.reset t.sv_fds
