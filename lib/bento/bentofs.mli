(** BentoFS — the layer interposed between the kernel VFS and a Bento file
    system (§4.3, §5.2 of the paper).

    It translates VFS calls into the file-operations API through a stored
    dispatch table, holding a dispatch read-lock per operation so that
    {!Upgrade.upgrade} can quiesce in-flight calls and swap the
    implementation underneath running applications. Its writeback path
    batches contiguous dirty pages into single [write] calls (writepages,
    inherited from the FUSE kernel module). *)

type handle = {
  mutable current : Fs_api.dispatch;
  dispatch_lock : Sim.Sync.Rwlock.t;
  machine : Kernel.Machine.t;
  bcache : Kernel.Bcache.t;
  services : (module Bentoks.KSERVICES);
  mutable upgrades : int;
  tracer : Sim.Trace.t;
  crossings : Sim.Stats.Counter.t;
      (** machine counter ["bento_crossings"]: VFS → BentoFS dispatches *)
  cas : Kernel.Cas.t option;
      (** content-addressable store over the reserved device tail, when
          mounted with [cas_blocks > 0] *)
}
(** The mount handle; [Upgrade] swaps [current] under [dispatch_lock]. *)

val wb_batch_pages : int
(** Default writepages batch (pages per [write_pages] call). *)

val vfs_ops : ?wb_batch:int -> handle -> Kernel.Vfs.fs_ops
(** The VFS table for a mounted Bento fs. [wb_batch 1] reproduces the C
    baseline's writepage behaviour (ablation experiments). *)

val mkfs :
  ?cas_blocks:int ->
  Kernel.Machine.t ->
  (module Fs_api.FS_MAKER) ->
  (unit, Kernel.Errno.t) result
(** Format the machine's device with the given file system. [cas_blocks]
    reserves that many device-tail blocks for the CAS region (the fs
    layout stops where it starts) and must match the value given to
    {!mount}. *)

val mount :
  ?dirty_limit:int ->
  ?page_cap:int ->
  ?background:bool ->
  ?wb_batch:int ->
  ?cas_blocks:int ->
  Kernel.Machine.t ->
  (module Fs_api.FS_MAKER) ->
  (Kernel.Vfs.t * handle, Kernel.Errno.t) result
(** Instantiate the fs module against fresh kernel services ("module
    insertion"), mount it on the VFS, and return the upgrade handle.
    [cas_blocks > 0] additionally attaches a {!Kernel.Cas} store over the
    reserved device tail, registers it for {!Kernel.Cas.of_machine}, and
    installs its page-sharing hooks on the VFS. *)

val unmount : Kernel.Vfs.t -> handle -> unit
(** Flush the VFS, destroy the fs instance, then empty the buffer cache
    (only the device image outlives the mount). *)

val bcache : handle -> Kernel.Bcache.t
val services : handle -> (module Bentoks.KSERVICES)
val machine : handle -> Kernel.Machine.t
val upgrades : handle -> int
val current_version : handle -> int
val current_name : handle -> string
