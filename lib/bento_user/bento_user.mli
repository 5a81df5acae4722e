(** The Bento userspace runtime: the §4.9 debugging story and the paper's
    FUSE baseline in one.

    [user_services] implements the same [Bentoks.KSERVICES] signature as
    the kernel runtime but over userspace facilities — a user-level buffer
    cache on an O_DIRECT disk file, and whole-disk-file fsync(2) as the
    durability barrier. Because a Bento file system is a functor over its
    services, the same fs code that runs in the kernel under BentoFS runs
    here behind the simulated FUSE transport, and both runtimes read the
    same disk image. *)

exception Use_after_release of string
exception Double_release of string

val user_services :
  ?nblocks_cap:int ->
  Kernel.Machine.t ->
  Fusesim.Ubcache.t ->
  (module Bento.Bentoks.KSERVICES)
(** [nblocks_cap] caps the device size the fs sees, reserving the tail
    for a {!Kernel.Cas} region. *)

val handler_of :
  Kernel.Machine.t -> Bento.Fs_api.dispatch -> Fusesim.Daemon.handler
(** Expose a mounted fs's dispatch table as a FUSE daemon handler. The
    machine locates the {!Kernel.Pushdown} registry the daemon-side
    filtered-scan handler runs against. *)

type mount_handle = {
  driver : Fusesim.Driver.t;
  transport : Fusesim.Transport.t;
  ubcache : Fusesim.Ubcache.t;
  cas : Kernel.Cas.t option;
}

val mount :
  ?dirty_limit:int ->
  ?page_cap:int ->
  ?background:bool ->
  ?nominal_gb:int ->
  ?cas_blocks:int ->
  Kernel.Machine.t ->
  (module Bento.Fs_api.FS_MAKER) ->
  (Kernel.Vfs.t * mount_handle, Kernel.Errno.t) result
(** Assemble the whole userspace stack: instantiate the fs against user
    services, start the daemon fiber, mount the FUSE driver on the VFS.
    [nominal_gb] sizes the disk file whose mapping fsync walks (default
    512, the paper's). [cas_blocks > 0] reserves the device tail for a
    {!Kernel.Cas} store backed by the daemon's raw (uncached) disk-file
    access and installs its page-sharing hooks — the CAS removes device
    I/O from warm opens, but the FUSE wire crossing per open remains. *)

val unmount : Kernel.Vfs.t -> mount_handle -> unit
(** Flush through the wire, send DESTROY, close the connection, then
    empty the daemon's buffer cache. *)
