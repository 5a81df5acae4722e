(** The Bento userspace runtime (§4.9 + the paper's FUSE baseline, §6.2).

    [user_services] implements the same [Bentoks.KSERVICES] signature as the
    kernel runtime, but over userspace facilities: an O_DIRECT disk file and
    a user-level buffer cache instead of `sb_bread`, and fsync(2) on the
    whole disk file instead of a device barrier. Because the file system is
    a functor over the services, the *same* file-system code that runs in
    the kernel under BentoFS runs here behind FUSE — the paper's "same code
    in both environments" debugging story, and simultaneously its FUSE
    performance baseline.

    The FUSE wire carries the file-operations API: [serve] answers a
    request from the daemon's [Fs_api.dispatch], and [remote] is the
    kernel-side dispatch whose every call is one round trip. [mount] binds
    [remote] with the same [Fs_api.vfs_ops] translation as BentoFS and the
    C-kernel baseline, so this stack differs from them only by the wire. *)

exception Use_after_release = Bento.Bentoks.Use_after_release
exception Double_release = Bento.Bentoks.Double_release

let user_services ?nblocks_cap (machine : Kernel.Machine.t)
    (ubc : Fusesim.Ubcache.t) : (module Bento.Bentoks.KSERVICES) =
  let stats = Kernel.Machine.stats machine in
  (module struct
    module Buffer = struct
      type t = { ub : Fusesim.Ubcache.buf; mutable released : bool }

      let block b = Fusesim.Ubcache.block b.ub

      let data b =
        if b.released then raise (Use_after_release "user buffer");
        Fusesim.Ubcache.data b.ub

      let mark_dirty b = if b.released then raise (Use_after_release "user buffer")
    end

    let bread n = { Buffer.ub = Fusesim.Ubcache.bread ubc n; released = false }
    let getblk n = { Buffer.ub = Fusesim.Ubcache.getblk ubc n; released = false }

    (* One daemon thread, O_DIRECT preads: no channel parallelism to
       exploit from userspace, so the batched read degenerates to a
       sequential loop. *)
    let bread_multi blocks = List.map bread blocks

    let bwrite (b : Buffer.t) =
      if b.Buffer.released then raise (Use_after_release "bwrite");
      Fusesim.Ubcache.bwrite ubc b.Buffer.ub

    (* No batching from userspace: O_DIRECT pwrites go out one block at a
       time, sequentially — the daemon has one thread. *)
    let bwrite_seq bs = List.iter bwrite bs
    let bwrite_all = bwrite_seq

    (* Same plug/unplug surface as the kernel runtime, but with one daemon
       thread there is nothing to overlap: staged writes go out
       sequentially at the barrier, in the kernel's canonical merged-run
       order so both hosts touch the disk image identically. *)
    module Bio = struct
      type plug = { mutable staged : Buffer.t list }

      let plug () = { staged = [] }

      let add p (b : Buffer.t) =
        if b.Buffer.released then raise (Use_after_release "Bio.add");
        p.staged <- b :: p.staged

      let unplug _ = ()

      let wait p =
        List.iter
          (fun (_start, run) -> List.iter bwrite run)
          (Kernel.Bio.runs
             (List.map (fun b -> (Buffer.block b, b)) p.staged));
        p.staged <- []
    end

    let brelse (b : Buffer.t) =
      if b.Buffer.released then raise (Double_release "user buffer");
      b.Buffer.released <- true;
      Fusesim.Ubcache.brelse ubc b.Buffer.ub

    (* Cache-bypassing installs are just O_DIRECT pwrites, one at a time,
       sorted so both hosts touch the disk image in the same order. *)
    let raw_write_scatter pairs =
      List.iter
        (fun (blk, data) -> Fusesim.Ubcache.raw_write ubc blk data)
        (List.sort (fun (a, _) (b, _) -> compare a b) pairs)

    let pin (b : Buffer.t) =
      if b.Buffer.released then raise (Use_after_release "pin");
      Fusesim.Ubcache.pin b.Buffer.ub

    let unpin (b : Buffer.t) =
      if b.Buffer.released then raise (Use_after_release "unpin");
      Fusesim.Ubcache.unpin b.Buffer.ub

    let with_bread n f =
      let b = bread n in
      match f b with
      | v ->
          brelse b;
          v
      | exception exn ->
          brelse b;
          raise exn

    let with_getblk n f =
      let b = getblk n in
      match f b with
      | v ->
          brelse b;
          v
      | exception exn ->
          brelse b;
          raise exn

    let flush () = Fusesim.Ubcache.flush ubc

    let block_size = Device.Ssd.block_size (Kernel.Machine.disk machine)

    let nblocks =
      let total = Device.Ssd.nblocks (Kernel.Machine.disk machine) in
      match nblocks_cap with Some n -> min n total | None -> total
    let cpu ns = Kernel.Machine.cpu_work machine ns
    let costs = Kernel.Machine.cost machine
    let now () = Kernel.Machine.now machine

    module Kmutex = struct
      type t = Sim.Sync.Mutex.t

      let create ?name () = Sim.Sync.Mutex.create ?name ()
      let lock = Sim.Sync.Mutex.lock
      let unlock = Sim.Sync.Mutex.unlock
      let with_lock = Sim.Sync.Mutex.with_lock
    end

    module Kcondvar = struct
      type t = Sim.Sync.Condvar.t

      let create () = Sim.Sync.Condvar.create ()
      let wait = Sim.Sync.Condvar.wait
      let signal = Sim.Sync.Condvar.signal
      let broadcast = Sim.Sync.Condvar.broadcast
    end

    let counter name () = Sim.Stats.Counter.incr (Sim.Stats.counter stats name)

    let counter_add name n =
      Sim.Stats.Counter.incr ~by:n (Sim.Stats.counter stats name)

    let profile layer f = Kernel.Machine.with_layer machine layer f

    let trace_counter name v =
      Sim.Trace.counter (Kernel.Machine.tracer machine) ~cat:"fs" name
        (Int64.of_int v)

    let register_inspector name probe =
      Kernel.Machine.register_inspector machine ~name (fun () ->
          Util.Json.Obj
            (List.map (fun (k, v) -> (k, Util.Json.Int v)) (probe ())))

    let printk msg = Kernel.Printk.info machine "fuse-daemon: %s" msg
    let pushdown = Kernel.Pushdown.registry machine
  end)

(* --- the wire: the dispatch, carried as FUSE requests ---------------- *)

module Api = Bento.Fs_api
module Proto = Fusesim.Proto

let max_write_pages = 32 (* 128 KB max_write, the libfuse default *)

(* Wire kind codes: 0 = regular, 1 = directory, 2 = symlink. *)
let kind_code = function
  | Kernel.Vfs.Reg -> 0
  | Kernel.Vfs.Dir -> 1
  | Kernel.Vfs.Symlink -> 2

let kind_of_code = function
  | 1 -> Api.Directory
  | 2 -> Api.Symlink
  | _ -> Api.File

let wire_attr (st : Kernel.Vfs.stat) =
  {
    Proto.ino = st.st_ino;
    kind = kind_code st.st_kind;
    size = st.st_size;
    nlink = st.st_nlink;
  }

let api_attr (a : Proto.attr) =
  {
    Api.a_ino = a.ino;
    a_kind = kind_of_code a.kind;
    a_size = a.size;
    a_nlink = a.nlink;
  }

let serve (d : Api.dispatch) (req : Proto.request) : Proto.reply =
  let reply ok = function Ok v -> ok v | Error e -> Proto.R_err e in
  let attr = reply (fun a -> Proto.R_attr (wire_attr (Api.vfs_stat a))) in
  let unit = reply (fun () -> Proto.R_none) in
  match req with
  | Lookup { dir; name } -> attr (d.d_lookup ~dir name)
  | Getattr { ino } -> attr (d.d_getattr ~ino)
  | Create { dir; name } -> attr (d.d_create ~dir name)
  | Mkdir { dir; name } -> attr (d.d_mkdir ~dir name)
  | Unlink { dir; name } -> unit (d.d_unlink ~dir name)
  | Rmdir { dir; name } -> unit (d.d_rmdir ~dir name)
  | Rename { olddir; oldname; newdir; newname } ->
      unit (d.d_rename ~olddir ~oldname ~newdir ~newname)
  | Link { ino; dir; name } -> attr (d.d_link ~ino ~dir name)
  | Symlink { dir; name; target } -> attr (d.d_symlink ~dir name ~target)
  | Readlink { ino } -> reply (fun s -> Proto.R_target s) (d.d_readlink ~ino)
  | Read { ino; off; len } ->
      reply (fun data -> Proto.R_data data) (d.d_read ~ino ~off ~len)
  | Write { ino; off; data } ->
      reply (fun n -> Proto.R_written n) (d.d_write ~ino ~off data)
  | Truncate { ino; size } -> unit (d.d_truncate ~ino ~size)
  | Fsync { ino } -> unit (d.d_fsync ~ino)
  | Syncfs -> unit (d.d_sync ())
  | Readdir { ino } ->
      reply
        (fun des ->
          Proto.R_dirents
            (List.map
               (fun (de : Api.dentry) ->
                 (de.name, de.ino, kind_code (Api.vfs_kind de.kind)))
               des))
        (d.d_readdir ~ino)
  | ReaddirFilter { dir; prog } ->
      reply
        (fun des ->
          Proto.R_dirents_plus
            (List.map
               (fun ((de : Kernel.Vfs.dirent), st) -> (de.d_name, wire_attr st))
               des))
        (d.d_readdir_filter ~ino:dir ~prog)
  | Bmap { ino; fbn } -> reply (fun n -> Proto.R_block n) (d.d_bmap ~ino ~fbn)
  | Open { ino } -> unit (d.d_iopen ~ino)
  | Release { ino } ->
      d.d_irelease ~ino;
      Proto.R_none
  | Statfs ->
      let s = d.d_statfs () in
      Proto.R_statfs
        {
          blocks = s.s_blocks;
          bfree = s.s_bfree;
          files = s.s_files;
          ffree = s.s_ffree;
        }
  | Destroy ->
      d.d_destroy ();
      Proto.R_none

let remote (transport : Fusesim.Transport.t) (served : Api.dispatch) :
    Api.dispatch =
  let call = Fusesim.Transport.call transport in
  let fail = function
    | Proto.R_err e -> Error e
    | _ -> Error Kernel.Errno.EIO (* protocol confusion *)
  in
  let attr req =
    match call req with Proto.R_attr a -> Ok (api_attr a) | r -> fail r
  in
  let unit req = match call req with Proto.R_none -> Ok () | r -> fail r in
  let not_upgradable _ =
    invalid_arg "Bento_user.remote: only a BentoFS handle can be upgraded"
  in
  {
    d_name = served.d_name;
    d_version = served.d_version;
    d_max_file_size = served.d_max_file_size;
    d_statfs =
      (fun () ->
        match call Statfs with
        | Proto.R_statfs { blocks; bfree; files; ffree } ->
            {
              s_blocks = blocks;
              s_bfree = bfree;
              s_files = files;
              s_ffree = ffree;
            }
        | _ -> { s_blocks = 0; s_bfree = 0; s_files = 0; s_ffree = 0 });
    d_getattr = (fun ~ino -> attr (Getattr { ino }));
    d_lookup = (fun ~dir name -> attr (Lookup { dir; name }));
    d_create = (fun ~dir name -> attr (Create { dir; name }));
    d_mkdir = (fun ~dir name -> attr (Mkdir { dir; name }));
    d_unlink = (fun ~dir name -> unit (Unlink { dir; name }));
    d_rmdir = (fun ~dir name -> unit (Rmdir { dir; name }));
    d_rename =
      (fun ~olddir ~oldname ~newdir ~newname ->
        unit (Rename { olddir; oldname; newdir; newname }));
    d_link = (fun ~ino ~dir name -> attr (Link { ino; dir; name }));
    d_symlink = (fun ~dir name ~target -> attr (Symlink { dir; name; target }));
    d_readlink =
      (fun ~ino ->
        match call (Readlink { ino }) with
        | Proto.R_target s -> Ok s
        | r -> fail r);
    d_read =
      (fun ~ino ~off ~len ->
        match call (Read { ino; off; len }) with
        | Proto.R_data data -> Ok data
        | r -> fail r);
    d_write =
      (fun ~ino ~off data ->
        match call (Write { ino; off; data }) with
        | Proto.R_written n -> Ok n
        | r -> fail r);
    d_truncate = (fun ~ino ~size -> unit (Truncate { ino; size }));
    d_fsync = (fun ~ino -> unit (Fsync { ino }));
    d_sync = (fun () -> unit Syncfs);
    d_readdir =
      (fun ~ino ->
        match call (Readdir { ino }) with
        | Proto.R_dirents des ->
            Ok
              (List.map
                 (fun (name, ino, kind) ->
                   { Api.name; ino; kind = kind_of_code kind })
                 des)
        | r -> fail r);
    d_readdir_filter =
      (fun ~ino ~prog ->
        (* One round trip however many entries the directory holds: the
           daemon runs the program and ships back only the survivors, each
           with its attributes. *)
        match call (ReaddirFilter { dir = ino; prog }) with
        | Proto.R_dirents_plus des ->
            Ok
              (List.map
                 (fun (name, a) ->
                   let st = Api.vfs_stat (api_attr a) in
                   ( {
                       Kernel.Vfs.d_name = name;
                       d_ino = st.st_ino;
                       d_kind = st.st_kind;
                     },
                     st ))
                 des)
        | r -> fail r);
    d_bmap =
      (fun ~ino ~fbn ->
        match call (Bmap { ino; fbn }) with
        | Proto.R_block n -> Ok n
        | r -> fail r);
    d_iopen = (fun ~ino -> unit (Open { ino }));
    d_irelease = (fun ~ino -> ignore (call (Release { ino })));
    d_extract_state = not_upgradable;
    d_restore_state = not_upgradable;
    d_destroy =
      (fun () ->
        (match call Destroy with
        | _ -> ()
        | exception Fusesim.Transport.Connection_closed -> ());
        Fusesim.Transport.close transport);
  }

type mount_handle = {
  remote : Bento.Fs_api.dispatch;
  transport : Fusesim.Transport.t;
  ubcache : Fusesim.Ubcache.t;
  cas : Kernel.Cas.t option;
}

(* CAS block access on this stack goes through the daemon's user bcache
   raw path (uncached pread/pwrite on the disk file): the shared-page
   table is the only cache, same dedup-aware admission as the kernel
   stack. The wire crossing per *open* is still paid on the kernel side —
   the CAS saves device I/O, not FUSE round-trips. *)
let cas_backend machine ubc =
  {
    Kernel.Cas.b_block_size = Device.Ssd.block_size (Kernel.Machine.disk machine);
    b_read = Fusesim.Ubcache.raw_read ubc;
    b_read_scatter =
      (fun blocks ->
        List.map (fun b -> (b, Fusesim.Ubcache.raw_read ubc b)) blocks);
    b_write = List.iter (fun (b, d) -> Fusesim.Ubcache.raw_write ubc b d);
    b_flush = (fun () -> Fusesim.Ubcache.flush ubc);
  }

(** Mount a Bento file system as a userspace FUSE daemon: same fs code,
    user services, the real wire protocol in between. *)
let mount ?dirty_limit ?page_cap ?background ?nominal_gb ?cas_blocks
    (machine : Kernel.Machine.t) (maker : (module Bento.Fs_api.FS_MAKER)) :
    (Kernel.Vfs.t * mount_handle, Kernel.Errno.t) result =
  let ufile = Fusesim.Ufile.create ?nominal_gb machine in
  let ubc = Fusesim.Ubcache.create ufile in
  (* The user-level buffer cache plays the bcache role on this stack, so
     its hits/misses publish under the same prefix for the bench
     hit-ratio metric. *)
  Kernel.Machine.register_stats machine ~prefix:"bcache"
    (Fusesim.Ubcache.stats ubc);
  let nblocks_cap =
    match cas_blocks with
    | None | Some 0 -> None
    | Some n -> Some (Device.Ssd.nblocks (Kernel.Machine.disk machine) - n)
  in
  let services = user_services ?nblocks_cap machine ubc in
  let module K = (val services) in
  let module Maker = (val maker) in
  let module F = Maker (K) in
  match F.mount () with
  | Error _ as e -> e
  | Ok fs ->
      let cas =
        match cas_blocks with
        | None | Some 0 -> None
        | Some n ->
            let base = Device.Ssd.nblocks (Kernel.Machine.disk machine) - n in
            let store =
              Kernel.Cas.attach machine (cas_backend machine ubc) ~base
                ~blocks:n
            in
            Kernel.Cas.register machine store;
            Some store
      in
      let served = Bento.Fs_api.dispatch_of machine (module F) fs in
      (* Pushdown walks on this stack read through the daemon's user-level
         buffer cache — below the syscall layer AND below the wire, so a
         chase costs zero FUSE round trips and repeats run warm. *)
      Kernel.Pushdown.set_backend
        (Kernel.Pushdown.registry machine)
        ~label:"ubcache"
        (fun blk ->
          let b = Fusesim.Ubcache.bread ubc blk in
          let d = Bytes.copy (Fusesim.Ubcache.data b) in
          Fusesim.Ubcache.brelse ubc b;
          d);
      let transport = Fusesim.Transport.create machine in
      Kernel.Machine.spawn ~name:"fuse-daemon" machine (fun () ->
          Fusesim.Daemon.run transport (serve served));
      let remote = remote transport served in
      let ops =
        Bento.Fs_api.vfs_ops machine
          ~enter:(fun _ -> { Bento.Fs_api.call = (fun f -> f remote) })
          ~fs_name:"fuse" ~wb_batch:max_write_pages
          ~max_file_size:remote.d_max_file_size
      in
      let vfs = Kernel.Vfs.mount ?dirty_limit ?page_cap ?background machine ops in
      Option.iter
        (fun store -> Kernel.Vfs.set_cas vfs (Some (Kernel.Cas.vfs_hooks store)))
        cas;
      Ok (vfs, { remote; transport; ubcache = ubc; cas })

(** Unmount: flush the VFS (through the wire), destroy the daemon-side fs,
    close the connection, empty the daemon's buffer cache. *)
let unmount (vfs : Kernel.Vfs.t) (h : mount_handle) =
  Kernel.Vfs.unmount vfs;
  (match h.cas with
  | Some _ -> Kernel.Cas.unregister (Kernel.Vfs.machine vfs)
  | None -> ());
  h.remote.d_destroy ();
  Fusesim.Ubcache.invalidate h.ubcache
