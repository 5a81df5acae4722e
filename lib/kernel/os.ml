(** The syscall front-end: path resolution, file descriptors, and the
    POSIX-ish calls the workloads and examples use. Each call charges the
    user/kernel crossing and generic VFS costs, then dispatches through the
    mounted file system's [Vfs.fs_ops]. *)

type flags = { rd : bool; wr : bool; creat : bool; trunc : bool; append : bool }

let rdonly = { rd = true; wr = false; creat = false; trunc = false; append = false }
let wronly = { rd = false; wr = true; creat = false; trunc = false; append = false }
let rdwr = { rd = true; wr = true; creat = false; trunc = false; append = false }
let creat f = { f with creat = true }
let truncf f = { f with trunc = true }
let appendf f = { f with append = true }

type file = {
  f_vnode : Vfs.vnode;
  f_flags : flags;
  mutable f_pos : int;
  f_lock : Sim.Sync.Mutex.t;  (** serialises f_pos updates: shared-fd reads *)
}

type t = {
  vfs : Vfs.t;
  fds : (int, file) Hashtbl.t;
  mutable next_fd : int;
  max_files : int;
  sys_lat : Sim.Stats.Histogram.t;  (** entry-to-exit latency, all syscalls *)
  sys_count : Sim.Stats.Counter.t;
  mutable slow_ns : int64 option;
      (** latency threshold: a syscall exceeding it triggers a
          flight-recorder dump *)
  mutable trigger_errors : bool;
      (** dump on syscalls returning [Error _] (off by default: ENOENT
          probes are routine in workloads) *)
}

type 'a res = ('a, Errno.t) result

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let create ?(max_files = 65536) vfs =
  let machine = Vfs.machine vfs in
  {
    vfs;
    fds = Hashtbl.create 256;
    next_fd = 3;
    max_files;
    sys_lat = Machine.histogram machine "syscall_lat";
    sys_count = Machine.counter machine "syscalls";
    slow_ns = None;
    trigger_errors = false;
  }

let vfs t = t.vfs
let set_slow_threshold t ns = t.slow_ns <- ns
let set_trigger_errors t b = t.trigger_errors <- b

let charge_syscall t =
  let c = Machine.cost (Vfs.machine t.vfs) in
  Machine.cpu_work (Vfs.machine t.vfs) (Int64.add c.Cost.syscall c.Cost.vfs_op)

(* Every syscall body runs inside this wrapper: it charges the
   user/kernel crossing, emits a tracer span named after the call, and
   records entry-to-exit virtual latency. The span begins before the
   crossing charge so queueing for a CPU core is attributed to the call.

   The wrapper also anchors the request context: a fiber arriving with no
   reqid (a local mount) gets one minted for the duration of the call, so
   every span, flow and note below it — down to the device
   completion fibers, which inherit the context at spawn — carries the
   same id. A server handler that already set a per-request context keeps
   it. Entry is noted in the tracer's ring; a call that exceeds the slow
   threshold or raises triggers a dump with the request's causal trace. *)
let syscall_plain t name f =
  let machine = Vfs.machine t.vfs in
  let tr = Machine.tracer machine in
  let eng = Machine.engine machine in
  Sim.Stats.Counter.incr t.sys_count;
  let minted = Sim.Engine.current_req eng = 0L in
  if minted then Sim.Engine.set_current_req eng (Sim.Engine.next_req_id eng);
  let clear_req () = if minted then Sim.Engine.set_current_req eng 0L in
  (* The whole syscall body runs under the "vfs" profiler frame; deeper
     layers (fs, bcache, device) push their own frames on top. *)
  Machine.with_layer machine "vfs" (fun () ->
      Sim.Trace.span_begin tr ~cat:"syscall" name;
      Sim.Trace.note tr ~kind:"syscall" name;
      let t0 = Machine.now machine in
      charge_syscall t;
      match f () with
      | r ->
          let lat = Int64.sub (Machine.now machine) t0 in
          Sim.Stats.Histogram.record t.sys_lat lat;
          Sim.Trace.span_end tr ~cat:"syscall" name;
          (match t.slow_ns with
          | Some thr when Int64.compare lat thr > 0 ->
              ignore
                (Sim.Trace.trigger tr
                   (Printf.sprintf "slow syscall %s: %Ld ns > threshold %Ld ns"
                      name lat thr))
          | _ -> ());
          clear_req ();
          r
      | exception exn ->
          (* Oracle failures and fault-injection surface as exceptions:
             capture the dump before unwinding kills the fiber. *)
          Sim.Trace.note ~sev:Sim.Trace.Error tr ~kind:"syscall"
            (Printf.sprintf "%s raised %s" name (Printexc.to_string exn));
          ignore
            (Sim.Trace.trigger tr
               (Printf.sprintf "syscall %s raised %s" name
                  (Printexc.to_string exn)));
          clear_req ();
          raise exn)

(* Result-returning syscalls (all but [statfs]) also note errno returns,
   and — when [set_trigger_errors] — dump on them. *)
let syscall t name (f : unit -> 'a res) : 'a res =
  syscall_plain t name (fun () ->
      match f () with
      | Error e as r ->
          let tr = Machine.tracer (Vfs.machine t.vfs) in
          Sim.Trace.note ~sev:Sim.Trace.Warn tr ~kind:"errno"
            (Printf.sprintf "%s -> %s" name (Errno.to_string e));
          if t.trigger_errors then
            ignore
              (Sim.Trace.trigger tr
                 (Printf.sprintf "syscall %s returned %s" name
                    (Errno.to_string e)));
          r
      | r -> r)

(* ------------------------------------------------------------------ *)
(* Path resolution.                                                    *)

let split_path path =
  if String.length path = 0 || path.[0] <> '/' then None
  else
    Some
      (String.split_on_char '/' path
      |> List.filter (fun c -> c <> "" && c <> "."))

let max_name = 255
let max_symlink_depth = 8

(* Walk components from the root, following symbolic links (except,
   optionally, in the final component — unlink/lstat/readlink operate on
   the link itself). Returns the stat of the final component. *)
let rec resolve_depth t ~follow_last ~depth path : Vfs.stat res =
  if depth > max_symlink_depth then Error Errno.ELOOP
  else
    match split_path path with
    | None -> Error Errno.EINVAL
    | Some comps ->
        let root_ino = (Vfs.ops t.vfs).Vfs.root_ino in
        let rec walk dir_st = function
          | [] -> Ok dir_st
          | name :: rest ->
              if String.length name > max_name then Error Errno.ENAMETOOLONG
              else if dir_st.Vfs.st_kind <> Vfs.Dir then Error Errno.ENOTDIR
              else
                let* st = Vfs.lookup t.vfs ~dir:dir_st.Vfs.st_ino name in
                let is_last = rest = [] in
                if st.Vfs.st_kind = Vfs.Symlink && ((not is_last) || follow_last)
                then
                  let* target = (Vfs.ops t.vfs).Vfs.readlink ~ino:st.Vfs.st_ino in
                  (* only absolute targets are produced by Os.symlink *)
                  let* st' =
                    resolve_depth t ~follow_last:true ~depth:(depth + 1) target
                  in
                  walk st' rest
                else walk st rest
        in
        let* root = (Vfs.ops t.vfs).Vfs.getattr root_ino in
        walk root comps

and resolve ?(follow_last = true) t path : Vfs.stat res =
  resolve_depth t ~follow_last ~depth:0 path

(* Resolve the parent directory of [path]; returns (parent stat, basename). *)
let resolve_parent t path : (Vfs.stat * string) res =
  match split_path path with
  | None | Some [] -> Error Errno.EINVAL
  | Some comps -> (
      let rev = List.rev comps in
      match rev with
      | [] -> Error Errno.EINVAL
      | base :: parents_rev ->
          if String.length base > max_name then Error Errno.ENAMETOOLONG
          else
            let parent_path = List.rev parents_rev in
            let root_ino = (Vfs.ops t.vfs).Vfs.root_ino in
            let* root = (Vfs.ops t.vfs).Vfs.getattr root_ino in
            let rec walk dir_st = function
              | [] -> Ok (dir_st, base)
              | name :: rest ->
                  if dir_st.Vfs.st_kind <> Vfs.Dir then Error Errno.ENOTDIR
                  else
                    let* st = Vfs.lookup t.vfs ~dir:dir_st.Vfs.st_ino name in
                    let* st =
                      if st.Vfs.st_kind = Vfs.Symlink then
                        let* target =
                          (Vfs.ops t.vfs).Vfs.readlink ~ino:st.Vfs.st_ino
                        in
                        resolve t target
                      else Ok st
                    in
                    walk st rest
            in
            walk root parent_path)

(* ------------------------------------------------------------------ *)
(* File descriptors.                                                   *)

let alloc_fd t file =
  if Hashtbl.length t.fds >= t.max_files then Error Errno.ENFILE
  else begin
    let fd = t.next_fd in
    t.next_fd <- t.next_fd + 1;
    Hashtbl.add t.fds fd file;
    Ok fd
  end

let file_of t fd : file res =
  match Hashtbl.find_opt t.fds fd with
  | Some f -> Ok f
  | None -> Error Errno.EBADF

(* ------------------------------------------------------------------ *)
(* Syscalls.                                                           *)

let open_ t path flags : int res =
  syscall t "open" @@ fun () ->
  let open_vnode (st : Vfs.stat) : int res =
    if st.Vfs.st_kind = Vfs.Dir && flags.wr then Error Errno.EISDIR
    else
      let v = Vfs.vnode_of t.vfs st.Vfs.st_ino ~kind:st.Vfs.st_kind ~size:st.Vfs.st_size in
      let* () = (Vfs.ops t.vfs).Vfs.iopen ~ino:st.Vfs.st_ino in
      v.Vfs.v_nopen <- v.Vfs.v_nopen + 1;
      let* () =
        if flags.trunc && st.Vfs.st_kind = Vfs.Reg then Vfs.truncate t.vfs v 0
        else Ok ()
      in
      alloc_fd t
        { f_vnode = v; f_flags = flags; f_pos = 0; f_lock = Sim.Sync.Mutex.create () }
  in
  match resolve t path with
  | Ok st -> open_vnode st
  | Error Errno.ENOENT when flags.creat -> (
      let* parent, base = resolve_parent t path in
      match (Vfs.ops t.vfs).Vfs.create ~dir:parent.Vfs.st_ino base with
      | Ok st ->
          Vfs.dcache_insert t.vfs ~dir:parent.Vfs.st_ino base st.Vfs.st_ino;
          open_vnode st
      | Error Errno.EEXIST ->
          (* raced with another creator; retry as plain open *)
          let* st = resolve t path in
          open_vnode st
      | Error _ as e -> e)
  | Error _ as e -> e

let close t fd : unit res =
  syscall t "close" @@ fun () ->
  let* f = file_of t fd in
  Hashtbl.remove t.fds fd;
  let v = f.f_vnode in
  v.Vfs.v_nopen <- v.Vfs.v_nopen - 1;
  if v.Vfs.v_nopen = 0 then begin
    if not v.Vfs.v_unlinked then Vfs.writeback_vnode t.vfs v;
    (Vfs.ops t.vfs).Vfs.irelease ~ino:v.Vfs.v_ino;
    if v.Vfs.v_unlinked then Vfs.drop_vnode t.vfs v
  end;
  Ok ()

let pread t fd ~pos ~len : Bytes.t res =
  syscall t "pread" @@ fun () ->
  let* f = file_of t fd in
  if not f.f_flags.rd then Error Errno.EBADF
  else Vfs.read t.vfs f.f_vnode ~pos ~len

let pwrite t fd ~pos data : int res =
  syscall t "pwrite" @@ fun () ->
  let* f = file_of t fd in
  if not f.f_flags.wr then Error Errno.EBADF
  else Vfs.write t.vfs f.f_vnode ~pos data

(** read(2): advances the shared file offset under the file lock — the
    serialisation that makes 32-thread sequential reads on one fd behave
    like the paper's. *)
let read t fd ~len : Bytes.t res =
  syscall t "read" @@ fun () ->
  let* f = file_of t fd in
  if not f.f_flags.rd then Error Errno.EBADF
  else
    Sim.Sync.Mutex.with_lock f.f_lock (fun () ->
        let* data = Vfs.read t.vfs f.f_vnode ~pos:f.f_pos ~len in
        f.f_pos <- f.f_pos + Bytes.length data;
        Ok data)

let write t fd data : int res =
  syscall t "write" @@ fun () ->
  let* f = file_of t fd in
  if not f.f_flags.wr then Error Errno.EBADF
  else
    Sim.Sync.Mutex.with_lock f.f_lock (fun () ->
        let pos = if f.f_flags.append then f.f_vnode.Vfs.v_size else f.f_pos in
        let* n = Vfs.write t.vfs f.f_vnode ~pos data in
        f.f_pos <- pos + n;
        Ok n)

let lseek t fd pos : unit res =
  syscall t "lseek" @@ fun () ->
  let* f = file_of t fd in
  if pos < 0 then Error Errno.EINVAL
  else begin
    f.f_pos <- pos;
    Ok ()
  end

let fsync t fd : unit res =
  syscall t "fsync" @@ fun () ->
  let* f = file_of t fd in
  Vfs.fsync t.vfs f.f_vnode

let ftruncate t fd size : unit res =
  syscall t "ftruncate" @@ fun () ->
  let* f = file_of t fd in
  if not f.f_flags.wr then Error Errno.EBADF
  else Vfs.truncate t.vfs f.f_vnode size

let fstat t fd : Vfs.stat res =
  syscall t "fstat" @@ fun () ->
  let* f = file_of t fd in
  let v = f.f_vnode in
  let* st = (Vfs.ops t.vfs).Vfs.getattr v.Vfs.v_ino in
  Ok { st with Vfs.st_size = v.Vfs.v_size }

let stat t path : Vfs.stat res =
  syscall t "stat" @@ fun () ->
  let* st = resolve t path in
  match Vfs.find_vnode t.vfs st.Vfs.st_ino with
  | Some v when v.Vfs.v_nopen > 0 -> Ok { st with Vfs.st_size = v.Vfs.v_size }
  | _ -> Ok st

let exists t path = match stat t path with Ok _ -> true | Error _ -> false

let mkdir t path : unit res =
  syscall t "mkdir" @@ fun () ->
  let* parent, base = resolve_parent t path in
  let* st = (Vfs.ops t.vfs).Vfs.mkdir ~dir:parent.Vfs.st_ino base in
  Vfs.dcache_insert t.vfs ~dir:parent.Vfs.st_ino base st.Vfs.st_ino;
  Ok ()

let unlink t path : unit res =
  syscall t "unlink" @@ fun () ->
  let* parent, base = resolve_parent t path in
  let* st = Vfs.lookup t.vfs ~dir:parent.Vfs.st_ino base in
  if st.Vfs.st_kind = Vfs.Dir then Error Errno.EISDIR
  else
    let* () = (Vfs.ops t.vfs).Vfs.unlink ~dir:parent.Vfs.st_ino base in
    Vfs.dcache_remove t.vfs ~dir:parent.Vfs.st_ino base;
    (match Vfs.find_vnode t.vfs st.Vfs.st_ino with
    | Some v ->
        v.Vfs.v_unlinked <- true;
        if v.Vfs.v_nopen = 0 then Vfs.drop_vnode t.vfs v
    | None ->
        (* never opened, so no vnode carries the deletion to the CAS
           binding — drop it here or a file recycling the inode number
           would serve the sealed content *)
        if st.Vfs.st_nlink <= 1 then Vfs.cas_unbind t.vfs st.Vfs.st_ino);
    Ok ()

let rmdir t path : unit res =
  syscall t "rmdir" @@ fun () ->
  let* parent, base = resolve_parent t path in
  let* st = Vfs.lookup t.vfs ~dir:parent.Vfs.st_ino base in
  if st.Vfs.st_kind <> Vfs.Dir then Error Errno.ENOTDIR
  else
    let* () = (Vfs.ops t.vfs).Vfs.rmdir ~dir:parent.Vfs.st_ino base in
    Vfs.dcache_remove t.vfs ~dir:parent.Vfs.st_ino base;
    Ok ()

let rename t oldpath newpath : unit res =
  syscall t "rename" @@ fun () ->
  let* oparent, oname = resolve_parent t oldpath in
  let* nparent, nname = resolve_parent t newpath in
  (* A rename that replaces an existing destination unlinks the victim:
     its vnode (cached size, page cache) must be dropped just as in
     [unlink], or a later file reusing the inode number inherits the
     victim's stale pages and length. *)
  let victim =
    match Vfs.lookup t.vfs ~dir:nparent.Vfs.st_ino nname with
    | Ok st when st.Vfs.st_kind <> Vfs.Dir -> Some st.Vfs.st_ino
    | _ -> None
  in
  let* () =
    (Vfs.ops t.vfs).Vfs.rename ~olddir:oparent.Vfs.st_ino ~oldname:oname
      ~newdir:nparent.Vfs.st_ino ~newname:nname
  in
  Vfs.dcache_remove t.vfs ~dir:oparent.Vfs.st_ino oname;
  Vfs.dcache_remove t.vfs ~dir:nparent.Vfs.st_ino nname;
  (match victim with
  | Some vino ->
      (* renaming one hard link of an inode onto another is a no-op that
         leaves both names; only a truly replaced inode loses a link *)
      let still_linked =
        match Vfs.lookup t.vfs ~dir:nparent.Vfs.st_ino nname with
        | Ok st -> st.Vfs.st_ino = vino
        | Error _ -> false
      in
      if not still_linked then (
        match Vfs.find_vnode t.vfs vino with
        | Some v ->
            v.Vfs.v_unlinked <- true;
            if v.Vfs.v_nopen = 0 then Vfs.drop_vnode t.vfs v
        | None -> Vfs.cas_unbind t.vfs vino)
  | None -> ());
  Ok ()

let link t oldpath newpath : unit res =
  syscall t "link" @@ fun () ->
  let* st = resolve t oldpath in
  if st.Vfs.st_kind = Vfs.Dir then Error Errno.EPERM
  else
    let* nparent, nname = resolve_parent t newpath in
    let* st' = (Vfs.ops t.vfs).Vfs.link ~ino:st.Vfs.st_ino ~dir:nparent.Vfs.st_ino nname in
    Vfs.dcache_insert t.vfs ~dir:nparent.Vfs.st_ino nname st'.Vfs.st_ino;
    Ok ()

let symlink t target linkpath : unit res =
  syscall t "symlink" @@ fun () ->
  let* parent, base = resolve_parent t linkpath in
  let* st = (Vfs.ops t.vfs).Vfs.symlink ~dir:parent.Vfs.st_ino base ~target in
  Vfs.dcache_insert t.vfs ~dir:parent.Vfs.st_ino base st.Vfs.st_ino;
  Ok ()

let readlink t path : string res =
  syscall t "readlink" @@ fun () ->
  let* st = resolve ~follow_last:false t path in
  if st.Vfs.st_kind <> Vfs.Symlink then Error Errno.EINVAL
  else (Vfs.ops t.vfs).Vfs.readlink ~ino:st.Vfs.st_ino

(** stat(2) without following a final symlink. *)
let lstat t path : Vfs.stat res =
  syscall t "lstat" @@ fun () -> resolve ~follow_last:false t path

let readdir t path : Vfs.dirent list res =
  syscall t "readdir" @@ fun () ->
  let* st = resolve t path in
  if st.Vfs.st_kind <> Vfs.Dir then Error Errno.ENOTDIR
  else (Vfs.ops t.vfs).Vfs.readdir st.Vfs.st_ino

(* --- pushdown entry points: each is exactly ONE syscall crossing; the
   work the plain path would do with further syscalls (per-entry stat,
   per-level read) happens in lower layers. *)

let readdir_filtered t path ~prog : (Vfs.dirent * Vfs.stat) list res =
  syscall t "readdir_filtered" @@ fun () ->
  let* st = resolve t path in
  if st.Vfs.st_kind <> Vfs.Dir then Error Errno.ENOTDIR
  else (Vfs.ops t.vfs).Vfs.readdir_filter st.Vfs.st_ino ~prog

let bmap t path ~fbn : int res =
  syscall t "bmap" @@ fun () ->
  let* st = resolve t path in
  if st.Vfs.st_kind <> Vfs.Reg then Error Errno.EINVAL
  else (Vfs.ops t.vfs).Vfs.bmap ~ino:st.Vfs.st_ino ~fbn

let pushdown_walk t ~prog ~root ~key : Bytes.t res =
  syscall t "pushdown_walk" @@ fun () ->
  Pushdown.walk (Pushdown.registry (Vfs.machine t.vfs)) ~name:prog ~root ~key

let pushdown_get t ~prog ~key : Bytes.t res =
  syscall t "pushdown_get" @@ fun () ->
  Pushdown.get (Pushdown.registry (Vfs.machine t.vfs)) ~name:prog ~key

let sync t : unit res = syscall t "sync" @@ fun () -> Vfs.sync t.vfs

let statfs t : Vfs.statfs =
  syscall_plain t "statfs" @@ fun () -> (Vfs.ops t.vfs).Vfs.statfs ()

(* Convenience helpers used by examples and workloads. *)

let write_file t path data : unit res =
  let* fd = open_ t path (creat (truncf wronly)) in
  let* _ = write t fd data in
  close t fd

let read_file t path : Bytes.t res =
  let* fd = open_ t path rdonly in
  let* st = fstat t fd in
  let* data = pread t fd ~pos:0 ~len:st.Vfs.st_size in
  let* () = close t fd in
  Ok data
