(** The simplified ext4 comparator, mounted in data=journal mode like the
    paper's (§6): block groups with per-group bitmaps and rotors, extent-
    mapped files, fixed-record directories, and the JBD2-style journal
    ([Jbd2]) whose lazy checkpointing is the structural advantage over the
    xv6 log. A native kernel file system: registers VFS ops directly. *)

type handle

val mkfs : Kernel.Machine.t -> (unit, Kernel.Errno.t) result

val mount :
  ?dirty_limit:int ->
  ?background:bool ->
  ?commit_interval:int64 ->
  Kernel.Machine.t ->
  (Kernel.Vfs.t * handle, Kernel.Errno.t) result
(** [background:false] suppresses both the VFS flusher and the kjournald
    periodic-commit fiber (useful for bounded test runs).
    [commit_interval] defaults to the ext4-like 5 s. *)

val unmount : Kernel.Vfs.t -> handle -> unit
(** Commit, checkpoint everything, stop kjournald, empty the buffer
    cache. *)

val journal_stats : handle -> int * int
(** (commits, checkpoints) — used by tests asserting group-commit
    batching. *)
