(** BentoFS — the layer that interposes between the kernel VFS and a Bento
    file system (§4.3, §5.2).

    It translates each VFS call into the file-operations API, holding a
    dispatch read-lock so that online upgrade can quiesce in-flight
    operations and swap the implementation underneath running applications
    (§4.8). Because BentoFS inherits from the FUSE kernel module, its
    writeback path batches contiguous dirty pages into single [write] calls
    ([writepages]); the hand-written C baseline writes one page at a time —
    the difference behind the paper's write/untar results. *)

type handle = {
  mutable current : Fs_api.dispatch;
  dispatch_lock : Sim.Sync.Rwlock.t;  (** read: ops; write: upgrade *)
  machine : Kernel.Machine.t;
  bcache : Kernel.Bcache.t;
  services : (module Bentoks.KSERVICES);
  mutable upgrades : int;
  tracer : Sim.Trace.t;
  crossings : Sim.Stats.Counter.t;  (** VFS → BentoFS dispatch crossings *)
  cas : Kernel.Cas.t option;  (** CAS region store, when mounted with one *)
}

let wb_batch_pages = 256
(** Max pages per writepages call — a 1 MiB max request, matching the FUSE
    kernel module's batched writeback this layer inherits. *)

(* Every VFS entry point runs under the dispatch read lock so upgrades can
   quiesce by taking it in write mode. Each crossing is counted and traced
   so the per-layer accounting in the benchmarks can attribute time spent
   below the VFS to the Bento dispatch layer. *)
let with_fs h name f =
  Sim.Stats.Counter.incr h.crossings;
  Kernel.Machine.with_layer h.machine "fs" @@ fun () ->
  Sim.Trace.span_begin h.tracer ~cat:"bento" name;
  match Sim.Sync.Rwlock.with_read h.dispatch_lock (fun () -> f h.current) with
  | r ->
      Sim.Trace.span_end h.tracer ~cat:"bento" name;
      r
  | exception e ->
      Sim.Trace.span_end h.tracer ~cat:"bento" name;
      raise e

let translate_attr = Fs_api.vfs_stat

(** Build the VFS function-pointer table for a mounted Bento fs.
    [wb_batch] overrides the writepages batch size (1 reproduces the C
    baseline's writepage behaviour — used by the ablation benchmarks). *)
let vfs_ops ?(wb_batch = wb_batch_pages) (h : handle) : Kernel.Vfs.fs_ops =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let psz = Kernel.Bcache.block_size h.bcache in
  {
    Kernel.Vfs.fs_name = "bento:" ^ h.current.Fs_api.d_name;
    root_ino = 1;
    lookup =
      (fun ~dir name ->
        with_fs h "bento:lookup" (fun d ->
            let* a = d.Fs_api.d_lookup ~dir name in
            Ok (translate_attr a)));
    getattr =
      (fun ino ->
        with_fs h "bento:getattr" (fun d ->
            let* a = d.Fs_api.d_getattr ~ino in
            Ok (translate_attr a)));
    create =
      (fun ~dir name ->
        with_fs h "bento:create" (fun d ->
            let* a = d.Fs_api.d_create ~dir name in
            Ok (translate_attr a)));
    mkdir =
      (fun ~dir name ->
        with_fs h "bento:mkdir" (fun d ->
            let* a = d.Fs_api.d_mkdir ~dir name in
            Ok (translate_attr a)));
    unlink =
      (fun ~dir name ->
        with_fs h "bento:unlink" (fun d -> d.Fs_api.d_unlink ~dir name));
    rmdir =
      (fun ~dir name ->
        with_fs h "bento:rmdir" (fun d -> d.Fs_api.d_rmdir ~dir name));
    rename =
      (fun ~olddir ~oldname ~newdir ~newname ->
        with_fs h "bento:rename" (fun d ->
            d.Fs_api.d_rename ~olddir ~oldname ~newdir ~newname));
    link =
      (fun ~ino ~dir name ->
        with_fs h "bento:link" (fun d ->
            let* a = d.Fs_api.d_link ~ino ~dir name in
            Ok (translate_attr a)));
    symlink =
      (fun ~dir name ~target ->
        with_fs h "bento:symlink" (fun d ->
            let* a = d.Fs_api.d_symlink ~dir name ~target in
            Ok (translate_attr a)));
    readlink =
      (fun ~ino ->
        with_fs h "bento:readlink" (fun d -> d.Fs_api.d_readlink ~ino));
    readdir =
      (fun ino ->
        with_fs h "bento:readdir" (fun d ->
            let* des = d.Fs_api.d_readdir ~ino in
            Ok
              (List.map
                 (fun de ->
                   {
                     Kernel.Vfs.d_name = de.Fs_api.name;
                     d_ino = de.Fs_api.ino;
                     d_kind = Fs_api.vfs_kind de.Fs_api.kind;
                   })
                 des)));
    readdir_filter =
      (fun ino ~prog ->
        (* The whole scan — readdir, filter, per-entry getattr — happens
           under ONE dispatch crossing; the registered program decides
           which entries survive. *)
        with_fs h "bento:readdir_filter" (fun d ->
            Kernel.Pushdown.filter_dir
              (Kernel.Pushdown.registry h.machine)
              ~name:prog
              ~readdir:(fun () ->
                let* des = d.Fs_api.d_readdir ~ino in
                Ok
                  (List.map
                     (fun de ->
                       {
                         Kernel.Vfs.d_name = de.Fs_api.name;
                         d_ino = de.Fs_api.ino;
                         d_kind = Fs_api.vfs_kind de.Fs_api.kind;
                       })
                     des))
              ~getattr:(fun ino ->
                let* a = d.Fs_api.d_getattr ~ino in
                Ok (translate_attr a))));
    bmap =
      (fun ~ino ~fbn ->
        with_fs h "bento:bmap" (fun d -> d.Fs_api.d_bmap ~ino ~fbn));
    readpage =
      (fun ~ino ~index ->
        with_fs h "bento:readpage" (fun d ->
            let* data = d.Fs_api.d_read ~ino ~off:(index * psz) ~len:psz in
            (* VFS wants a full page; zero-fill a short read at EOF. *)
            if Bytes.length data = psz then Ok data
            else begin
              let page = Bytes.make psz '\000' in
              Bytes.blit data 0 page 0 (Bytes.length data);
              Ok page
            end));
    readahead =
      (fun ~ino ~start ~count ->
        with_fs h "bento:readahead" (fun d ->
            (* One bulk read for the whole window: the fs maps the span
               and pulls it through the cache in channel-parallel batched
               commands (readi's bread_multi path). *)
            let* data =
              d.Fs_api.d_read ~ino ~off:(start * psz) ~len:(count * psz)
            in
            Ok
              (Array.init count (fun i ->
                   let page = Bytes.make psz '\000' in
                   let off = i * psz in
                   let n = min psz (max 0 (Bytes.length data - off)) in
                   if n > 0 then Bytes.blit data off page 0 n;
                   page))));
    write_pages =
      (fun ~ino ~isize pages ->
        with_fs h "bento:write_pages" (fun d ->
            (* Contiguous dirty run: one fs write (writepages). Clamp the
               tail to the inode size so the fs records the true size. *)
            match Array.length pages with
            | 0 -> Ok ()
            | n ->
                let first_index = fst pages.(0) in
                let buf = Bytes.create (n * psz) in
                Array.iteri
                  (fun i (_, data) -> Bytes.blit data 0 buf (i * psz) psz)
                  pages;
                let off = first_index * psz in
                let len = min (Bytes.length buf) (max 0 (isize - off)) in
                if len = 0 then Ok ()
                else
                  let* _ = d.Fs_api.d_write ~ino ~off (Bytes.sub buf 0 len) in
                  Ok ()));
    truncate =
      (fun ~ino size ->
        with_fs h "bento:truncate" (fun d -> d.Fs_api.d_truncate ~ino ~size));
    fsync =
      (fun ~ino -> with_fs h "bento:fsync" (fun d -> d.Fs_api.d_fsync ~ino));
    sync_fs = (fun () -> with_fs h "bento:sync_fs" (fun d -> d.Fs_api.d_sync ()));
    iopen = (fun ~ino -> with_fs h "bento:iopen" (fun d -> d.Fs_api.d_iopen ~ino));
    irelease =
      (fun ~ino ->
        with_fs h "bento:irelease" (fun d -> d.Fs_api.d_irelease ~ino));
    statfs =
      (fun () ->
        with_fs h "bento:statfs" (fun d ->
            let s = d.Fs_api.d_statfs () in
            {
              Kernel.Vfs.f_blocks = s.Fs_api.s_blocks;
              f_bfree = s.Fs_api.s_bfree;
              f_files = s.Fs_api.s_files;
              f_ffree = s.Fs_api.s_ffree;
            }));
    wb_batch;
    max_file_size = h.current.Fs_api.d_max_file_size;
  }

(* Reserving a CAS region caps the block count the fs sees: the tail of
   the device belongs to the store. *)
let fs_cap machine cas_blocks =
  match cas_blocks with
  | None | Some 0 -> None
  | Some n -> Some (Device.Ssd.nblocks (Kernel.Machine.disk machine) - n)

let cas_backend bcache =
  {
    Kernel.Cas.b_block_size = Kernel.Bcache.block_size bcache;
    b_read = Kernel.Bcache.raw_read bcache;
    b_read_scatter = Kernel.Bcache.raw_read_scatter bcache;
    b_write = Kernel.Bcache.raw_write_scatter bcache;
    b_flush = (fun () -> Kernel.Bcache.flush bcache);
  }

(** Format the device with file system [maker]. [cas_blocks] must match
    the value later given to {!mount} — the fs layout stops where the CAS
    region starts. *)
let mkfs ?cas_blocks (machine : Kernel.Machine.t)
    (maker : (module Fs_api.FS_MAKER)) : (unit, Kernel.Errno.t) result =
  let bcache = Kernel.Bcache.create machine in
  let services =
    Bentoks.kernel_services ?nblocks_cap:(fs_cap machine cas_blocks) machine
      bcache
  in
  let module K = (val services) in
  let module Maker = (val maker) in
  let module F = Maker (K) in
  let r = F.mkfs () in
  Kernel.Bcache.flush bcache;
  r

(** Insert + mount: instantiate the fs module against fresh kernel
    services, mount it, and return the VFS mount plus the handle used for
    upgrades. [cas_blocks > 0] reserves that many device-tail blocks for a
    content-addressable store, attaches it (recovering any committed
    state) and registers its hooks with the VFS. *)
let mount ?dirty_limit ?page_cap ?background ?wb_batch ?cas_blocks
    (machine : Kernel.Machine.t) (maker : (module Fs_api.FS_MAKER)) :
    (Kernel.Vfs.t * handle, Kernel.Errno.t) result =
  let bcache = Kernel.Bcache.create machine in
  let services =
    Bentoks.kernel_services ?nblocks_cap:(fs_cap machine cas_blocks) machine
      bcache
  in
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
              Kernel.Cas.attach machine (cas_backend bcache) ~base ~blocks:n
            in
            Kernel.Cas.register machine store;
            Some store
      in
      let h =
        {
          current = Fs_api.dispatch_of (module F) fs;
          dispatch_lock = Sim.Sync.Rwlock.create ();
          machine;
          bcache;
          services;
          upgrades = 0;
          tracer = Kernel.Machine.tracer machine;
          crossings = Kernel.Machine.counter machine "bento_crossings";
          cas;
        }
      in
      let vfs =
        Kernel.Vfs.mount ?dirty_limit ?page_cap ?background machine
          (vfs_ops ?wb_batch h)
      in
      Kernel.Pushdown.set_bcache_backend machine bcache;
      Option.iter
        (fun store -> Kernel.Vfs.set_cas vfs (Some (Kernel.Cas.vfs_hooks store)))
        cas;
      Ok (vfs, h)

(** Unmount: flush the VFS, destroy the fs instance, empty the buffer
    cache. *)
let unmount (vfs : Kernel.Vfs.t) (h : handle) =
  Kernel.Vfs.unmount vfs;
  (match h.cas with
  | Some _ -> Kernel.Cas.unregister h.machine
  | None -> ());
  h.current.Fs_api.d_destroy ();
  Kernel.Bcache.invalidate h.bcache

let bcache h = h.bcache
let services h = h.services
let machine h = h.machine
let upgrades h = h.upgrades
let current_version h = h.current.Fs_api.d_version
let current_name h = h.current.Fs_api.d_name
