(** The Bento userspace runtime (§4.9 + the paper's FUSE baseline, §6.2).

    [user_services] implements the same [Bentoks.KSERVICES] signature as the
    kernel runtime, but over userspace facilities: an O_DIRECT disk file and
    a user-level buffer cache instead of `sb_bread`, and fsync(2) on the
    whole disk file instead of a device barrier. Because the file system is
    a functor over the services, the *same* file-system code that runs in
    the kernel under BentoFS runs here behind FUSE — the paper's "same code
    in both environments" debugging story, and simultaneously its FUSE
    performance baseline.

    [mount] assembles the whole userspace stack: daemon fiber + FUSE kernel
    driver + VFS mount. *)

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

(* Translate the Fs_api dispatch into the daemon handler table. [machine]
   locates the pushdown registry the filtered-scan handler runs against. *)
let handler_of machine (d : Bento.Fs_api.dispatch) : Fusesim.Daemon.handler =
  let kind_code = function
    | Bento.Fs_api.File -> 0
    | Bento.Fs_api.Directory -> 1
    | Bento.Fs_api.Symlink -> 2
  in
  let attr (a : Bento.Fs_api.attr) =
    {
      Fusesim.Proto.ino = a.Bento.Fs_api.a_ino;
      kind = kind_code a.Bento.Fs_api.a_kind;
      size = a.Bento.Fs_api.a_size;
      nlink = a.Bento.Fs_api.a_nlink;
    }
  in
  let amap = Result.map attr in
  {
    Fusesim.Daemon.h_lookup = (fun ~dir name -> amap (d.Bento.Fs_api.d_lookup ~dir name));
    h_getattr = (fun ~ino -> amap (d.Bento.Fs_api.d_getattr ~ino));
    h_create = (fun ~dir name -> amap (d.Bento.Fs_api.d_create ~dir name));
    h_mkdir = (fun ~dir name -> amap (d.Bento.Fs_api.d_mkdir ~dir name));
    h_unlink = (fun ~dir name -> d.Bento.Fs_api.d_unlink ~dir name);
    h_rmdir = (fun ~dir name -> d.Bento.Fs_api.d_rmdir ~dir name);
    h_rename =
      (fun ~olddir ~oldname ~newdir ~newname ->
        d.Bento.Fs_api.d_rename ~olddir ~oldname ~newdir ~newname);
    h_link = (fun ~ino ~dir name -> amap (d.Bento.Fs_api.d_link ~ino ~dir name));
    h_read = (fun ~ino ~off ~len -> d.Bento.Fs_api.d_read ~ino ~off ~len);
    h_write = (fun ~ino ~off data -> d.Bento.Fs_api.d_write ~ino ~off data);
    h_truncate = (fun ~ino ~size -> d.Bento.Fs_api.d_truncate ~ino ~size);
    h_fsync = (fun ~ino -> d.Bento.Fs_api.d_fsync ~ino);
    h_syncfs = (fun () -> d.Bento.Fs_api.d_sync ());
    h_readdir =
      (fun ~ino ->
        Result.map
          (List.map (fun de ->
               ( de.Bento.Fs_api.name,
                 de.Bento.Fs_api.ino,
                 kind_code de.Bento.Fs_api.kind )))
          (d.Bento.Fs_api.d_readdir ~ino));
    h_readdir_filter =
      (fun ~ino ~prog ->
        (* Daemon-side pushdown: readdir, filter, and per-entry getattr all
           happen here, below the wire — the kernel paid ONE round trip. *)
        Result.map
          (List.map (fun ((de : Kernel.Vfs.dirent), (st : Kernel.Vfs.stat)) ->
               ( de.Kernel.Vfs.d_name,
                 {
                   Fusesim.Proto.ino = st.Kernel.Vfs.st_ino;
                   kind =
                     (match st.Kernel.Vfs.st_kind with
                     | Kernel.Vfs.Reg -> 0
                     | Kernel.Vfs.Dir -> 1
                     | Kernel.Vfs.Symlink -> 2);
                   size = st.Kernel.Vfs.st_size;
                   nlink = st.Kernel.Vfs.st_nlink;
                 } )))
          (Kernel.Pushdown.filter_dir
             (Kernel.Pushdown.registry machine)
             ~name:prog
             ~readdir:(fun () ->
               Result.map
                 (List.map Bento.Fs_api.vfs_dirent)
                 (d.Bento.Fs_api.d_readdir ~ino))
             ~getattr:(fun ino ->
               Result.map Bento.Fs_api.vfs_stat (d.Bento.Fs_api.d_getattr ~ino))));
    h_bmap = (fun ~ino ~fbn -> d.Bento.Fs_api.d_bmap ~ino ~fbn);
    h_open = (fun ~ino -> d.Bento.Fs_api.d_iopen ~ino);
    h_release = (fun ~ino -> d.Bento.Fs_api.d_irelease ~ino);
    h_statfs =
      (fun () ->
        let s = d.Bento.Fs_api.d_statfs () in
        ( s.Bento.Fs_api.s_blocks,
          s.Bento.Fs_api.s_bfree,
          s.Bento.Fs_api.s_files,
          s.Bento.Fs_api.s_ffree ));
    h_symlink =
      (fun ~dir name ~target -> amap (d.Bento.Fs_api.d_symlink ~dir name ~target));
    h_readlink = (fun ~ino -> d.Bento.Fs_api.d_readlink ~ino);
    h_destroy = (fun () -> d.Bento.Fs_api.d_destroy ());
  }

type mount_handle = {
  driver : Fusesim.Driver.t;
  transport : Fusesim.Transport.t;
  ubcache : Fusesim.Ubcache.t;
  cas : Kernel.Cas.t option;
}

(* CAS block access on this stack goes through the daemon's user bcache
   raw path (uncached pread/pwrite on the disk file): the shared-page
   table is the only cache, same dedup-aware admission as the kernel
   stack. The wire crossing per *open* is still paid by the VFS driver —
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
      let dispatch = Bento.Fs_api.dispatch_of (module F) fs in
      let handler = handler_of machine dispatch in
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
          Fusesim.Daemon.run transport handler);
      let driver = Fusesim.Driver.create machine transport in
      let ops =
        Fusesim.Driver.vfs_ops driver
          ~max_file_size:dispatch.Bento.Fs_api.d_max_file_size
      in
      let vfs = Kernel.Vfs.mount ?dirty_limit ?page_cap ?background machine ops in
      Option.iter
        (fun store -> Kernel.Vfs.set_cas vfs (Some (Kernel.Cas.vfs_hooks store)))
        cas;
      Ok (vfs, { driver; transport; ubcache = ubc; cas })

(** Unmount: flush the VFS (through the wire), destroy the daemon-side fs,
    close the connection, empty the daemon's buffer cache. *)
let unmount (vfs : Kernel.Vfs.t) (h : mount_handle) =
  Kernel.Vfs.unmount vfs;
  (match h.cas with
  | Some _ -> Kernel.Cas.unregister (Kernel.Vfs.machine vfs)
  | None -> ());
  Fusesim.Driver.shutdown h.driver;
  Fusesim.Ubcache.invalidate h.ubcache
