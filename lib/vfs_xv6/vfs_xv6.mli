(** The "C-kernel" baseline (§6.2): the xv6 file system written directly
    against the kernel VFS, sharing the on-disk format with the Bento
    version ([Xv6fs.Layout]) but independently implemented with the
    characteristics the paper ascribes to its hand-written C baseline —
    raw kernel objects (no capability layer), `writepage` writeback
    ([wb_batch = 1]), and per-block synchronous log I/O. *)

val mkfs : Kernel.Machine.t -> (unit, Kernel.Errno.t) result
(** Format the device. Images are mountable by either xv6 implementation
    (cross-compatibility is covered by tests). *)

val mount :
  ?dirty_limit:int ->
  ?background:bool ->
  Kernel.Machine.t ->
  (Kernel.Vfs.t, Kernel.Errno.t) result
(** Recover the log and register the VFS ops. *)

val unmount : Kernel.Vfs.t -> unit
(** Flush everything, then empty the mount's buffer cache. *)
