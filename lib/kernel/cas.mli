(** Content-addressable store for sealed read-only volumes.

    Blocks keyed by content hash, stored once in a reserved region at the
    device tail (cap the file system's KSERVICES block count so it never
    allocates there). A sealed {e manifest} describes a read-only tree;
    {!instantiate} creates it as sparse files and binds their inodes to
    the manifest, after which page faults alias a refcounted shared-page
    table through {!Vfs.cas_ops} — N tenant trees share the same cached
    pages, a warm open+read does no device I/O, and the first write to a
    bound file breaks the share by copy-on-write.

    Durability: commits write data blocks and the inactive half of a
    ping-pong catalog area, flush, then write the next-generation
    superblock and flush. Live state is never overwritten, so a crash at
    any point yields one valid generation — wholly old or wholly new.

    Machine counters: [cas_hits] (alias served from a resident shared
    page), [cas_fills] (shared page filled from the device),
    [cas_shared_pages] (gauge: resident shared pages),
    [dedup_blocks_saved] (blocks sealing did not store again),
    [cas_commits]. *)

type t

(** Raw block access to the device the region lives on — [Bcache.raw_*]
    for the kernel stacks, the FUSE daemon's user bcache for bento_user.
    Reads and writes bypass any buffer cache: shared pages are the only
    cache CAS blocks get (dedup-aware admission). Writes are volatile
    until [b_flush]. *)
type backend = {
  b_block_size : int;
  b_read : int -> Bytes.t;
  b_read_scatter : int list -> (int * Bytes.t) list;
  b_write : (int * Bytes.t) list -> unit;
  b_flush : unit -> unit;
}

val attach : Machine.t -> backend -> base:int -> blocks:int -> t
(** Open the region [\[base, base+blocks)]. Loads the newest valid
    superblock generation; a fresh region is formatted (an empty
    generation is committed). [blocks] must be at least 16. *)

val seal_files : t -> name:string -> dirs:string list -> files:(string * Bytes.t) list -> int
(** Seal a tree given directly as data: deduplicate every page against
    the store, write the new blocks and commit. Paths are relative to the
    tree root ([dirs] in any order — they are sorted so parents precede
    children). Returns the manifest id. *)

val find_manifest : t -> string -> int option
val manifest_dirs : t -> int -> string array
val manifest_files : t -> int -> (string * int) array
(** [(path, size)] per file, in binding index order. *)

val instantiate : ?commit_bindings:bool -> t -> Os.t -> mid:int -> root:string -> unit
(** Create manifest [mid]'s tree under [root] (created if missing):
    directories, then each file created and truncated up to its size —
    sparse stubs; content stays in the store — and its inode bound to the
    manifest. [commit_bindings] (default true) makes the bindings durable;
    pass [false] when instantiating many trees and call {!commit} once.
    Raises [Errno.Error] on file-system failure. *)

val commit : t -> unit
(** Make the current in-memory state durable (see module doc). *)

val vfs_hooks : t -> Vfs.cas_ops
(** The hook record to pass to {!Vfs.set_cas}. *)

val binding_of : t -> int -> (int * int) option
(** [(manifest id, file index)] bound to an inode, if any. *)

val resident_pages : t -> int
(** Shared pages currently resident (the [cas_shared_pages] gauge). *)

val used_blocks : t -> int
(** Region blocks in use: superblocks + data watermark + live catalog —
    the store's contribution to total device-block accounting. *)

val verify_manifest : t -> int -> bool
(** Crash oracle: every page of every file of the manifest is in the
    index, allocated below the watermark, and its device bytes hash to
    the sealed value. *)

val register : Machine.t -> t -> unit
(** Record the machine's store so workloads handed only a machine can
    find it with {!of_machine}. Mount paths call this. *)

val unregister : Machine.t -> unit

val of_machine : Machine.t -> t option
