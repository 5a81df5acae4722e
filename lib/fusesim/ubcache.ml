(** A user-level buffer cache over the O_DIRECT disk file — the userspace
    replacement for the kernel buffer cache that the FUSE build of the file
    system needs (O_DIRECT bypasses the kernel's caches entirely, so the
    daemon must cache blocks itself). *)

type buf = {
  block : int;
  data : Bytes.t;
  mutable valid : bool;
  mutable refcount : int;
  mutable pinned : int;
  mutable prev : buf;
  mutable next : buf;
}

(* Every cached buffer sits on one circular list through a sentinel, in
   order of last release: new buffers go to the head, [brelse] moves a
   buffer to the tail. A buffer becomes evictable only by a release, so
   the first unreferenced, unpinned buffer from the head is the one
   released longest ago. A buffer pinned at its release and unpinned later
   keeps its place, ahead of buffers released after it. *)
type t = {
  ufile : Ufile.t;
  capacity : int;
  table : (int, buf) Hashtbl.t;
  lru : buf;  (** sentinel: [lru.next] is the head, [lru.prev] the tail *)
  stats : Sim.Stats.t;
}

exception No_buffers

let create ?(capacity = 8192) ufile =
  let rec lru =
    {
      block = -1;
      data = Bytes.empty;
      valid = false;
      refcount = 0;
      pinned = 0;
      prev = lru;
      next = lru;
    }
  in
  {
    ufile;
    capacity;
    table = Hashtbl.create (2 * capacity);
    lru;
    stats = Sim.Stats.create ();
  }

let stats t = t.stats
let incr t name = Sim.Stats.Counter.incr (Sim.Stats.counter t.stats name)

let block b = b.block
let data b = b.data

let unlink b =
  b.prev.next <- b.next;
  b.next.prev <- b.prev

let insert_after anchor b =
  b.prev <- anchor;
  b.next <- anchor.next;
  anchor.next.prev <- b;
  anchor.next <- b

let evict_one t =
  let rec first b =
    if b == t.lru then raise No_buffers
    else if b.refcount = 0 && b.pinned = 0 then b
    else first b.next
  in
  let b = first t.lru.next in
  unlink b;
  Hashtbl.remove t.table b.block;
  incr t "evictions"

let getbuf t block =
  match Hashtbl.find_opt t.table block with
  | Some b ->
      incr t "hits";
      b.refcount <- b.refcount + 1;
      b
  | None ->
      incr t "misses";
      if Hashtbl.length t.table >= t.capacity then evict_one t;
      let b =
        {
          block;
          data = Bytes.make (Ufile.block_size t.ufile) '\000';
          valid = false;
          refcount = 1;
          pinned = 0;
          prev = t.lru;
          next = t.lru;
        }
      in
      insert_after t.lru b;
      Hashtbl.add t.table block b;
      b

(** Read-through: pread(2) on the disk file on a miss. *)
let bread t block =
  let b = getbuf t block in
  if not b.valid then begin
    let data = Ufile.pread_block t.ufile block in
    Bytes.blit data 0 b.data 0 (Bytes.length data);
    b.valid <- true
  end;
  b

let getblk t block =
  let b = getbuf t block in
  if not b.valid then begin
    Bytes.fill b.data 0 (Bytes.length b.data) '\000';
    b.valid <- true
  end;
  b

(** Write-through: pwrite(2) with O_DIRECT (volatile until [flush]). *)
let bwrite t b = Ufile.pwrite_block t.ufile b.block b.data

(* Install a committed image straight to the disk file without touching
   the cached buffer — it may hold newer, uncommitted contents. *)
let raw_write t block data = Ufile.pwrite_block t.ufile block data

(* Read a block without admitting it to the cache: CAS blocks are cached
   once in the shared-page table instead. *)
let raw_read t block =
  incr t "raw_reads";
  Ufile.pread_block t.ufile block

let brelse t b =
  if b.refcount <= 0 then invalid_arg "Ubcache.brelse";
  b.refcount <- b.refcount - 1;
  unlink b;
  insert_after t.lru.prev b

let pin b = b.pinned <- b.pinned + 1

let unpin b =
  if b.pinned <= 0 then invalid_arg "Ubcache.unpin";
  b.pinned <- b.pinned - 1

(** fsync(2) on the whole disk file — the only durability tool userspace
    has. *)
let flush t = Ufile.fsync_disk t.ufile

let cached_blocks t = Hashtbl.length t.table

(* Drop every buffer at unmount. The cache writes through, so no buffer
   is ever dirty; a held or pinned one is the caller's bug. *)
let invalidate t =
  Hashtbl.iter
    (fun block b ->
      if b.refcount > 0 || b.pinned > 0 then
        invalid_arg
          (Printf.sprintf "Ubcache.invalidate: block %d %s" block
             (if b.refcount > 0 then "held" else "pinned")))
    t.table;
  Hashtbl.reset t.table;
  t.lru.next <- t.lru;
  t.lru.prev <- t.lru
