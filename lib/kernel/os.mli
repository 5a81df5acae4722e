(** The syscall front-end: path resolution (with symlink following), file
    descriptors, and the POSIX-ish calls the workloads and examples use.
    Every call charges the user/kernel crossing and generic VFS costs in
    virtual time, then dispatches through the mounted {!Vfs.fs_ops}.

    All calls must run inside a simulation fiber. Results use
    [('a, Errno.t) result]; [Errno.ok_exn] unwraps when failure is fatal. *)

type t
(** A "process view": one fd table over one mounted file system. *)

type flags = { rd : bool; wr : bool; creat : bool; trunc : bool; append : bool }

val rdonly : flags
val wronly : flags
val rdwr : flags

val creat : flags -> flags
(** O_CREAT. *)

val truncf : flags -> flags
(** O_TRUNC. *)

val appendf : flags -> flags
(** O_APPEND. *)

type 'a res = ('a, Errno.t) result

val create : ?max_files:int -> Vfs.t -> t
val vfs : t -> Vfs.t

val set_slow_threshold : t -> int64 option -> unit
(** Latency threshold (virtual ns): a syscall exceeding it triggers a
    flight-recorder dump ({!Sim.Trace.trigger}) carrying its causal trace. [None] (default)
    disables the trigger. *)

val set_trigger_errors : t -> bool -> unit
(** Also trigger a dump when a syscall returns [Error _]. Off by default —
    ENOENT probes are routine in workloads; errno returns are always noted
    in the machine tracer's ring regardless. *)

(** {1 Files} *)

val open_ : t -> string -> flags -> int res
val close : t -> int -> unit res

val read : t -> int -> len:int -> Bytes.t res
(** read(2): advances the shared file offset under the file lock. *)

val write : t -> int -> Bytes.t -> int res
(** write(2); honours O_APPEND. *)

val pread : t -> int -> pos:int -> len:int -> Bytes.t res
val pwrite : t -> int -> pos:int -> Bytes.t -> int res
val lseek : t -> int -> int -> unit res
val fsync : t -> int -> unit res
val ftruncate : t -> int -> int -> unit res
val fstat : t -> int -> Vfs.stat res

(** {1 Namespace} *)

val stat : t -> string -> Vfs.stat res
(** Follows symlinks. *)

val lstat : t -> string -> Vfs.stat res
(** Does not follow a final symlink. *)

val exists : t -> string -> bool
val mkdir : t -> string -> unit res
val unlink : t -> string -> unit res
val rmdir : t -> string -> unit res
val rename : t -> string -> string -> unit res
val link : t -> string -> string -> unit res

val symlink : t -> string -> string -> unit res
(** [symlink t target linkpath]. Targets are absolute paths. *)

val readlink : t -> string -> string res
val readdir : t -> string -> Vfs.dirent list res

val readdir_filtered :
  t -> string -> prog:string -> (Vfs.dirent * Vfs.stat) list res
(** Pushdown scan: run the registered {!Pushdown} filter program over the
    directory in ONE syscall — the filter and the per-entry attributes all
    happen below the crossing (and, on the FUSE stack, below the wire). *)

val bmap : t -> string -> fbn:int -> int res
(** FIBMAP: device block backing file block [fbn] (0 = hole). How clients
    learn device pointers when building pushdown index blocks. *)

val pushdown_walk : t -> prog:string -> root:int -> key:int64 -> Bytes.t res
(** Run a registered {!Pushdown.Extent_walk} from index root [root]: one
    syscall; the chase resubmits its own reads from completion context. *)

val pushdown_get : t -> prog:string -> key:int64 -> Bytes.t res
(** Run a registered {!Pushdown.Kv_get}: the whole point lookup resolves
    below the syscall layer in one crossing. *)

val sync : t -> unit res
val statfs : t -> Vfs.statfs

(** {1 Convenience} *)

val write_file : t -> string -> Bytes.t -> unit res
(** Create-or-truncate and write the whole contents. *)

val read_file : t -> string -> Bytes.t res
