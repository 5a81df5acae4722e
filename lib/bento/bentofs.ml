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

(** Build the VFS function-pointer table for a mounted Bento fs: the
    shared dispatch translation, entered through {!with_fs}. [wb_batch]
    overrides the writepages batch size (1 reproduces the C baseline's
    writepage behaviour — used by the ablation benchmarks). *)
let vfs_ops ?(wb_batch = wb_batch_pages) (h : handle) : Kernel.Vfs.fs_ops =
  Fs_api.vfs_ops h.machine
    ~enter:(fun op ->
      let name = "bento:" ^ op in
      { Fs_api.call = (fun f -> with_fs h name f) })
    ~fs_name:("bento:" ^ h.current.Fs_api.d_name)
    ~wb_batch ~max_file_size:h.current.Fs_api.d_max_file_size

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
          current = Fs_api.dispatch_of machine (module F) fs;
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
