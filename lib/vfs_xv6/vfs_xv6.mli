(** The "C-kernel" baseline (§6.2): the xv6 file system of the Bento stack
    ([Xv6fs.Fs.Make], same code, same on-disk format) registered straight
    with the kernel VFS. It differs from the Bento stack only in the three
    traits the paper ascribes to its hand-written C baseline, all chosen
    in the implementation of this module:

    - a plain VFS binding: BentoFS's dispatch translation
      ([Bento.Fs_api.vfs_ops]) entered by a direct call — no dispatch
      lock, crossing counter or trace span;
    - [writepage] writeback: [wb_batch = 1], one page per [write_pages];
    - synchronous per-block I/O: kernel services whose multi-block reads
      and writes issue one device command per block, in order. *)

val mkfs : Kernel.Machine.t -> (unit, Kernel.Errno.t) result
(** Format the device. Images are mountable by every xv6 stack. *)

val mount :
  ?dirty_limit:int ->
  ?background:bool ->
  Kernel.Machine.t ->
  (Kernel.Vfs.t, Kernel.Errno.t) result
(** Recover the log and register the VFS ops. *)

val unmount : Kernel.Vfs.t -> unit
(** Flush everything, then empty the mount's buffer cache. *)
