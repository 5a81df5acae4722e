(** User-level buffer cache over the O_DIRECT disk file — the userspace
    replacement for the kernel buffer cache (O_DIRECT bypasses kernel
    caches, so the daemon must cache blocks itself). *)

type buf
(** A cached block. Each [bread]/[getblk] takes a reference that
    {!brelse} gives back. When the cache is full, a miss evicts the
    buffer released longest ago among those with no references and no
    pins (in O(1) unless buffers ahead of it are still held), or raises
    {!No_buffers} when there is none. *)

type t

val block : buf -> int
val data : buf -> Bytes.t

exception No_buffers

val create : ?capacity:int -> Ufile.t -> t
val stats : t -> Sim.Stats.t

val bread : t -> int -> buf
(** Read-through: pread(2) on the disk file on a miss. *)

val getblk : t -> int -> buf

val bwrite : t -> buf -> unit
(** Write-through: pwrite(2) with O_DIRECT (volatile until {!flush}). *)

val raw_write : t -> int -> Bytes.t -> unit
(** Write data for a block straight to the disk file without touching the
    cached buffer — installing a committed version while the cache may
    hold newer uncommitted contents. *)

val raw_read : t -> int -> Bytes.t
(** Read a block without admitting it to the cache — the CAS store's
    shared-page table is the only cache its blocks get. *)

val brelse : t -> buf -> unit
val pin : buf -> unit
(** Keep a buffer cached even with no references (the log pins blocks of
    an uncommitted transaction). Unpinning does not refresh its place in
    the eviction order. *)

val unpin : buf -> unit

val flush : t -> unit
(** fsync(2) on the whole disk file — the only durability tool userspace
    has, and FUSE's downfall in the evaluation. *)

val cached_blocks : t -> int

val invalidate : t -> unit
(** Drop every cached buffer at unmount, so a cache that outlives its
    mount holds no blocks; the next [bread] of any block is a miss.
    Raises [Invalid_argument], leaving the cache as it was, if a buffer
    is still held or pinned. Charges no virtual time and bumps no
    counter. *)
