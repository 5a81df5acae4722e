(** The "C-kernel" baseline: the xv6 file system registered directly with
    the kernel VFS layer, the way the paper's 1862-line C baseline was
    (§6.2).

    The paper's C version and Bento's xv6 are two ports of one design, so
    this module runs the very same xv6 code ([Xv6fs.Fs.Make]) and differs
    from the Bento stack only in the three traits the paper ascribes to
    the hand-written C version, each of which lives here:

    - plain VFS binding: [mount] registers the shared dispatch
      translation ([Bento.Fs_api.vfs_ops]) with each call made directly —
      no BentoFS dispatch lock, crossing counter or trace span — wrapped
      only in the profiler's "fs" layer ([Kernel.Vfs.profiled_ops]);
    - [writepage] writeback: the table is registered with [wb_batch = 1],
      so the VFS hands [write_pages] one page per call;
    - synchronous per-block I/O: [services] wraps the kernel services and
      replaces every multi-block operation ([bread_multi], [bwrite_seq],
      [bwrite_all], [Bio], [raw_write_scatter]) with one synchronous
      device command per block, in order. The C version "was just written
      for this evaluation" and lacks the batched, async bio submission
      BentoFS inherited from the FUSE kernel module; the log's commits,
      its installs and readahead windows all pay for that here. *)

(** The kernel services with every multi-block operation issued as one
    synchronous device command per block. *)
let services machine bc : (module Bento.Bentoks.KSERVICES) =
  let module K = (val Bento.Bentoks.kernel_services machine bc) in
  (module struct
    include K

    let bread_multi blocks = List.map bread blocks
    let bwrite_seq bufs = List.iter bwrite bufs
    let bwrite_all = bwrite_seq

    module Bio = struct
      type plug = unit

      let plug () = ()
      let add () b = bwrite b
      let unplug () = ()
      let wait () = ()
    end

    let raw_write_scatter pairs =
      List.iter (fun (blk, data) -> Kernel.Bcache.raw_write bc blk data) pairs
  end)

let instantiate machine =
  let bc = Kernel.Bcache.create machine in
  let module K = (val services machine bc) in
  let module F = Xv6fs.Fs.Make (K) in
  (bc, (module F : Bento.Fs_api.FS))

let mkfs machine =
  let bc, (module F : Bento.Fs_api.FS) = instantiate machine in
  let r = F.mkfs () in
  Kernel.Bcache.flush bc;
  r

(* The mounted instance: [unmount] takes only the VFS, and finds here the
   fs to destroy and the buffer cache to empty. A later mount on the same
   machine takes the slot over. *)
let mounted :
    (Kernel.Vfs.t * Bento.Fs_api.dispatch * Kernel.Bcache.t) Kernel.Machine.key
    =
  Kernel.Machine.new_key ()

let mount ?dirty_limit ?background machine =
  let bc, (module F : Bento.Fs_api.FS) = instantiate machine in
  match F.mount () with
  | Error _ as e -> e
  | Ok fs ->
      let d = Bento.Fs_api.dispatch_of machine (module F) fs in
      let ops =
        Bento.Fs_api.vfs_ops machine
          ~enter:(fun _ -> { Bento.Fs_api.call = (fun f -> f d) })
          ~fs_name:"xv6-c" ~wb_batch:1 ~max_file_size:F.max_file_size
      in
      Kernel.Pushdown.set_bcache_backend machine bc;
      let vfs =
        Kernel.Vfs.mount ?dirty_limit ?background machine
          (Kernel.Vfs.profiled_ops machine "fs" ops)
      in
      Kernel.Machine.set_slot machine mounted (Some (vfs, d, bc));
      Ok vfs

let unmount vfs =
  Kernel.Vfs.unmount vfs;
  let machine = Kernel.Vfs.machine vfs in
  match Kernel.Machine.slot machine mounted with
  | Some (v, d, bc) when v == vfs ->
      d.Bento.Fs_api.d_destroy ();
      Kernel.Bcache.invalidate bc;
      Kernel.Machine.set_slot machine mounted None
  | _ -> ()
