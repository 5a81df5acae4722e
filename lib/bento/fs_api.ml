(** The Bento file operations API (§4.3–§4.4).

    This is the interface a Bento file system implements — a typed rendering
    of the FUSE low-level API augmented with access to the kernel services
    capability, exactly as the paper describes. BentoFS translates VFS calls
    into these operations; ownership of no object ever crosses the
    interface (arguments are borrowed for the duration of the call — in
    OCaml, immutable values and short-lived [Bytes.t] views). *)

type kind = File | Directory | Symlink

type attr = {
  a_ino : int;
  a_kind : kind;
  a_size : int;
  a_nlink : int;
}

type fs_stats = {
  s_blocks : int;
  s_bfree : int;
  s_files : int;
  s_ffree : int;
}

type dentry = { name : string; ino : int; kind : kind }

type 'a res = ('a, Kernel.Errno.t) result

(** What a Bento file system implements. The module is instantiated against
    a [Bentoks.KSERVICES] by a functor ("module insertion"), mirroring how a
    Rust Bento fs is compiled against the BentoKS crate and inserted. *)
module type FS = sig
  type t

  val name : string
  val version : int

  val mkfs : unit -> unit res
  (** Write a fresh, empty file system image to the device. *)

  val mount : unit -> t res
  (** Read the superblock, recover the log if needed, return the instance. *)

  val destroy : t -> unit
  (** Flush everything; called at unmount. *)

  val statfs : t -> fs_stats
  val getattr : t -> ino:int -> attr res
  val lookup : t -> dir:int -> string -> attr res
  val create : t -> dir:int -> string -> attr res
  val mkdir : t -> dir:int -> string -> attr res
  val unlink : t -> dir:int -> string -> unit res
  val rmdir : t -> dir:int -> string -> unit res

  val rename :
    t -> olddir:int -> oldname:string -> newdir:int -> newname:string -> unit res

  val link : t -> ino:int -> dir:int -> string -> attr res

  val symlink : t -> dir:int -> string -> target:string -> attr res
  val readlink : t -> ino:int -> string res
  val read : t -> ino:int -> off:int -> len:int -> Bytes.t res
  val write : t -> ino:int -> off:int -> Bytes.t -> int res
  val truncate : t -> ino:int -> size:int -> unit res
  val fsync : t -> ino:int -> unit res
  val sync : t -> unit res
  val readdir : t -> ino:int -> dentry list res

  val bmap : t -> ino:int -> fbn:int -> int res
  (** FIBMAP: the device block backing file block [fbn] of [ino]; 0 for an
      unallocated hole. Never allocates — clients use it to learn device
      pointers when building pushdown index blocks. *)

  val iopen : t -> ino:int -> unit res
  val irelease : t -> ino:int -> unit

  val max_file_size : int

  (* Online upgrade support (§4.8): the mediating layer calls
     [extract_state] on the old version after quiescing, and
     [restore_state] on the new version before resuming. *)
  val extract_state : t -> Upgrade_state.t
  val restore_state : t -> Upgrade_state.t -> unit
end

(** A file-system implementation parameterised by the kernel services it
    runs against — in the kernel (BentoKS) or at user level (§4.9). *)
module type FS_MAKER = functor (_ : Bentoks.KSERVICES) -> FS

let vfs_kind = function
  | File -> Kernel.Vfs.Reg
  | Directory -> Kernel.Vfs.Dir
  | Symlink -> Kernel.Vfs.Symlink

let vfs_stat a =
  {
    Kernel.Vfs.st_ino = a.a_ino;
    st_kind = vfs_kind a.a_kind;
    st_size = a.a_size;
    st_nlink = a.a_nlink;
  }

let vfs_dirent de =
  { Kernel.Vfs.d_name = de.name; d_ino = de.ino; d_kind = vfs_kind de.kind }

(** The function-pointer table BentoFS stores for a mounted file system
    (§5.2: "function pointers to file system operations are stored in a data
    structure that is provided to Bento when the file system is mounted and
    upgraded"). Built from an [FS] module by [dispatch_of].

    All three xv6 stacks reach the VFS through {!vfs_ops} over one of
    these. BentoFS and the C-kernel baseline bind [dispatch_of] in the
    kernel; FUSE binds [Bento_user.remote], whose every field is one wire
    round trip to [dispatch_of] in the daemon. [d_readdir_filter] runs the
    pushdown filtered scan wherever the dispatch lives, so on FUSE the
    whole scan costs one request. *)
type dispatch = {
  d_name : string;
  d_version : int;
  d_max_file_size : int;
  d_statfs : unit -> fs_stats;
  d_getattr : ino:int -> attr res;
  d_lookup : dir:int -> string -> attr res;
  d_create : dir:int -> string -> attr res;
  d_mkdir : dir:int -> string -> attr res;
  d_unlink : dir:int -> string -> unit res;
  d_rmdir : dir:int -> string -> unit res;
  d_rename :
    olddir:int -> oldname:string -> newdir:int -> newname:string -> unit res;
  d_link : ino:int -> dir:int -> string -> attr res;
  d_symlink : dir:int -> string -> target:string -> attr res;
  d_readlink : ino:int -> string res;
  d_read : ino:int -> off:int -> len:int -> Bytes.t res;
  d_write : ino:int -> off:int -> Bytes.t -> int res;
  d_truncate : ino:int -> size:int -> unit res;
  d_fsync : ino:int -> unit res;
  d_sync : unit -> unit res;
  d_readdir : ino:int -> dentry list res;
  d_readdir_filter :
    ino:int -> prog:string -> (Kernel.Vfs.dirent * Kernel.Vfs.stat) list res;
  d_bmap : ino:int -> fbn:int -> int res;
  d_iopen : ino:int -> unit res;
  d_irelease : ino:int -> unit;
  d_extract_state : unit -> Upgrade_state.t;
  d_restore_state : Upgrade_state.t -> unit;
  d_destroy : unit -> unit;
}

let dispatch_of (type a) (machine : Kernel.Machine.t)
    (module F : FS with type t = a) (fs : a) : dispatch =
  {
    d_name = F.name;
    d_version = F.version;
    d_max_file_size = F.max_file_size;
    d_statfs = (fun () -> F.statfs fs);
    d_getattr = (fun ~ino -> F.getattr fs ~ino);
    d_lookup = (fun ~dir name -> F.lookup fs ~dir name);
    d_create = (fun ~dir name -> F.create fs ~dir name);
    d_mkdir = (fun ~dir name -> F.mkdir fs ~dir name);
    d_unlink = (fun ~dir name -> F.unlink fs ~dir name);
    d_rmdir = (fun ~dir name -> F.rmdir fs ~dir name);
    d_rename =
      (fun ~olddir ~oldname ~newdir ~newname ->
        F.rename fs ~olddir ~oldname ~newdir ~newname);
    d_link = (fun ~ino ~dir name -> F.link fs ~ino ~dir name);
    d_symlink = (fun ~dir name ~target -> F.symlink fs ~dir name ~target);
    d_readlink = (fun ~ino -> F.readlink fs ~ino);
    d_read = (fun ~ino ~off ~len -> F.read fs ~ino ~off ~len);
    d_write = (fun ~ino ~off data -> F.write fs ~ino ~off data);
    d_truncate = (fun ~ino ~size -> F.truncate fs ~ino ~size);
    d_fsync = (fun ~ino -> F.fsync fs ~ino);
    d_sync = (fun () -> F.sync fs);
    d_readdir = (fun ~ino -> F.readdir fs ~ino);
    d_readdir_filter =
      (fun ~ino ~prog ->
        (* The whole scan — readdir, filter, per-entry getattr — runs here,
           next to the fs; the registered program decides which entries
           survive. *)
        Kernel.Pushdown.filter_dir
          (Kernel.Pushdown.registry machine)
          ~name:prog
          ~readdir:(fun () ->
            Result.map (List.map vfs_dirent) (F.readdir fs ~ino))
          ~getattr:(fun ino -> Result.map vfs_stat (F.getattr fs ~ino)));
    d_bmap = (fun ~ino ~fbn -> F.bmap fs ~ino ~fbn);
    d_iopen = (fun ~ino -> F.iopen fs ~ino);
    d_irelease = (fun ~ino -> F.irelease fs ~ino);
    d_extract_state = (fun () -> F.extract_state fs);
    d_restore_state = (fun st -> F.restore_state fs st);
    d_destroy = (fun () -> F.destroy fs);
  }

(** How a VFS call enters the file system: [call f] runs [f] against the
    dispatch table in force. BentoFS enters under its dispatch lock with a
    counted, traced crossing; a file system registered straight with the
    VFS makes a plain call. *)
type entry = { call : 'a. (dispatch -> 'a) -> 'a }

(** The VFS function-pointer table over a dispatch table. [enter op]
    (e.g. [enter "lookup"]) is asked once per operation when the table is
    built; [wb_batch] is the most dirty pages one [write_pages] call
    carries (1 = writepage). *)
let vfs_ops (machine : Kernel.Machine.t) ~(enter : string -> entry) ~fs_name
    ~wb_batch ~max_file_size : Kernel.Vfs.fs_ops =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let psz = Device.Ssd.block_size (Kernel.Machine.disk machine) in
  let stat_of = Result.map vfs_stat in
  let readdir d ~ino = Result.map (List.map vfs_dirent) (d.d_readdir ~ino) in
  {
    Kernel.Vfs.fs_name;
    root_ino = 1;
    lookup =
      (let e = enter "lookup" in
       fun ~dir name -> e.call (fun d -> stat_of (d.d_lookup ~dir name)));
    getattr =
      (let e = enter "getattr" in
       fun ino -> e.call (fun d -> stat_of (d.d_getattr ~ino)));
    create =
      (let e = enter "create" in
       fun ~dir name -> e.call (fun d -> stat_of (d.d_create ~dir name)));
    mkdir =
      (let e = enter "mkdir" in
       fun ~dir name -> e.call (fun d -> stat_of (d.d_mkdir ~dir name)));
    unlink =
      (let e = enter "unlink" in
       fun ~dir name -> e.call (fun d -> d.d_unlink ~dir name));
    rmdir =
      (let e = enter "rmdir" in
       fun ~dir name -> e.call (fun d -> d.d_rmdir ~dir name));
    rename =
      (let e = enter "rename" in
       fun ~olddir ~oldname ~newdir ~newname ->
         e.call (fun d -> d.d_rename ~olddir ~oldname ~newdir ~newname));
    link =
      (let e = enter "link" in
       fun ~ino ~dir name ->
         e.call (fun d -> stat_of (d.d_link ~ino ~dir name)));
    symlink =
      (let e = enter "symlink" in
       fun ~dir name ~target ->
         e.call (fun d -> stat_of (d.d_symlink ~dir name ~target)));
    readlink =
      (let e = enter "readlink" in
       fun ~ino -> e.call (fun d -> d.d_readlink ~ino));
    readdir =
      (let e = enter "readdir" in
       fun ino -> e.call (fun d -> readdir d ~ino));
    readdir_filter =
      (let e = enter "readdir_filter" in
       fun ino ~prog -> e.call (fun d -> d.d_readdir_filter ~ino ~prog));
    bmap =
      (let e = enter "bmap" in
       fun ~ino ~fbn -> e.call (fun d -> d.d_bmap ~ino ~fbn));
    readpage =
      (let e = enter "readpage" in
       fun ~ino ~index ->
         e.call (fun d ->
             let* data = d.d_read ~ino ~off:(index * psz) ~len:psz in
             (* VFS wants a full page; zero-fill a short read at EOF. *)
             if Bytes.length data = psz then Ok data
             else begin
               let page = Bytes.make psz '\000' in
               Bytes.blit data 0 page 0 (Bytes.length data);
               Ok page
             end));
    readahead =
      (let e = enter "readahead" in
       fun ~ino ~start ~count ->
         e.call (fun d ->
             (* One fs read for the whole window: the fs maps the span and
                pulls it through the cache with one [bread_multi], whose
                device commands are the services' choice. *)
             let* data = d.d_read ~ino ~off:(start * psz) ~len:(count * psz) in
             Ok
               (Array.init count (fun i ->
                    let page = Bytes.make psz '\000' in
                    let off = i * psz in
                    let n = min psz (max 0 (Bytes.length data - off)) in
                    if n > 0 then Bytes.blit data off page 0 n;
                    page))));
    write_pages =
      (let e = enter "write_pages" in
       fun ~ino ~isize pages ->
         e.call (fun d ->
             (* Contiguous dirty run (at most [wb_batch] pages): one fs
                write. Clamp the tail to the inode size so the fs records
                the true size. *)
             match Array.length pages with
             | 0 -> Ok ()
             | n ->
                 let first_index = fst pages.(0) in
                 let buf = Bytes.create (n * psz) in
                 Array.iteri
                   (fun i (_, data) -> Bytes.blit data 0 buf (i * psz) psz)
                   pages;
                 let off = first_index * psz in
                 let len = min (Bytes.length buf) (max 0 (isize - off)) in
                 if len = 0 then Ok ()
                 else
                   let* _ = d.d_write ~ino ~off (Bytes.sub buf 0 len) in
                   Ok ()));
    truncate =
      (let e = enter "truncate" in
       fun ~ino size -> e.call (fun d -> d.d_truncate ~ino ~size));
    fsync =
      (let e = enter "fsync" in
       fun ~ino -> e.call (fun d -> d.d_fsync ~ino));
    sync_fs =
      (let e = enter "sync_fs" in
       fun () -> e.call (fun d -> d.d_sync ()));
    iopen =
      (let e = enter "iopen" in
       fun ~ino -> e.call (fun d -> d.d_iopen ~ino));
    irelease =
      (let e = enter "irelease" in
       fun ~ino -> e.call (fun d -> d.d_irelease ~ino));
    statfs =
      (let e = enter "statfs" in
       fun () ->
         e.call (fun d ->
             let s = d.d_statfs () in
             {
               Kernel.Vfs.f_blocks = s.s_blocks;
               f_bfree = s.s_bfree;
               f_files = s.s_files;
               f_ffree = s.s_ffree;
             }));
    wb_batch;
    max_file_size;
  }
