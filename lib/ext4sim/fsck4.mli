(** Offline consistency checker for the simplified ext4 format (the
    e2fsck analogue): superblock, inode table, extent and leaf block
    ownership against the per-group bitmaps in both directions, inode
    bitmap, directory graph and link counts. The ext4 counterpart of
    [Xv6fs.Fsck], used by the crash-injection tests. *)

type report = {
  errors : string list;  (** consistency violations *)
  warnings : string list;  (** oddities that are not corruption *)
  files : int;
  directories : int;
  symlinks : int;
  used_blocks : int;  (** data and leaf blocks owned by some inode *)
}

val ok : report -> bool
val pp_report : Format.formatter -> report -> unit

val check_device : ?stable:bool -> Device.Ssd.t -> report
(** Check a device's current view, or with [~stable:true] only what would
    survive a crash right now. The image is read in place
    ({!Device.Ssd.Offline.view}), never copied, so the check allocates in
    proportion to the metadata it finds, not to the device size. *)
