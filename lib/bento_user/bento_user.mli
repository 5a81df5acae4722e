(** The Bento userspace runtime: the §4.9 debugging story and the paper's
    FUSE baseline in one.

    [user_services] implements the same [Bentoks.KSERVICES] signature as
    the kernel runtime but over userspace facilities — a user-level buffer
    cache on an O_DIRECT disk file, and whole-disk-file fsync(2) as the
    durability barrier. Because a Bento file system is a functor over its
    services, the same fs code that runs in the kernel under BentoFS runs
    here behind the simulated FUSE transport, and both runtimes read the
    same disk image.

    The wire carries the file-operations API itself: [serve] answers each
    request from the daemon's dispatch, and [remote] is a dispatch whose
    every call is one round trip. [mount] binds [remote] with the shared
    {!Bento.Fs_api.vfs_ops}, the translation BentoFS and the C-kernel
    baseline use, so the FUSE stack differs from them only by the wire. *)

exception Use_after_release of string
exception Double_release of string

val user_services :
  ?nblocks_cap:int ->
  Kernel.Machine.t ->
  Fusesim.Ubcache.t ->
  (module Bento.Bentoks.KSERVICES)
(** [nblocks_cap] caps the device size the fs sees, reserving the tail
    for a {!Kernel.Cas} region. *)

val serve :
  Bento.Fs_api.dispatch -> Fusesim.Proto.request -> Fusesim.Proto.reply
(** Daemon side: answer one request by calling the dispatch. *)

val remote :
  Fusesim.Transport.t -> Bento.Fs_api.dispatch -> Bento.Fs_api.dispatch
(** Kernel side: [remote transport served] sends each call as one request
    to a daemon that [serve]s [served]. Name, version and maximum file
    size are copied from [served]. [d_destroy] sends DESTROY and closes
    the connection. [d_extract_state] and [d_restore_state] raise
    [Invalid_argument]: only a BentoFS handle can be upgraded. *)

type mount_handle = {
  remote : Bento.Fs_api.dispatch;  (** the kernel side of the wire *)
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
    services, start the daemon fiber serving its dispatch, and mount
    [remote] on the VFS through {!Bento.Fs_api.vfs_ops} (plain calls,
    [fs_name "fuse"], at most 32 pages = 128 KB per WRITE).
    [nominal_gb] sizes the disk file whose mapping fsync walks (default
    512, the paper's). [cas_blocks > 0] reserves the device tail for a
    {!Kernel.Cas} store backed by the daemon's raw (uncached) disk-file
    access and installs its page-sharing hooks — the CAS removes device
    I/O from warm opens, but the FUSE wire crossing per open remains. *)

val unmount : Kernel.Vfs.t -> mount_handle -> unit
(** Flush through the wire, send DESTROY, close the connection, then
    empty the daemon's buffer cache. *)
