(** The four file-system stacks of the paper's evaluation behind one
    face. Every tool — the bench harness, the crash checker, the CLI and
    the tests — brings a stack up through this module, so they all
    measure exactly the same stacks:

    - [Bento]: xv6fs inserted into the simulated kernel through BentoFS;
    - [Ckernel]: the same xv6fs code bound straight to the VFS with the
      C baseline's writepage and per-block synchronous I/O ([Vfs_xv6]);
    - [Fuse]: the same xv6fs code running as a userspace daemon behind
      the FUSE transport;
    - [Ext4]: the native ext4 comparator in data=journal mode. *)

type t = Bento | Ckernel | Fuse | Ext4

let all = [ Bento; Ckernel; Fuse; Ext4 ]

let name = function
  | Bento -> "bento"
  | Ckernel -> "ckernel"
  | Fuse -> "fuse"
  | Ext4 -> "ext4"

let of_string s = List.find_opt (fun k -> name k = s) all

let ok = Kernel.Errno.ok_exn
let xv6 : (module Bento.Fs_api.FS_MAKER) = (module Xv6fs.Fs.Make)

(** A fresh machine with 4 KB blocks; 2M blocks (8 GB) by default. *)
let machine ?(disk_blocks = 2 * 1024 * 1024) () =
  Kernel.Machine.create ~disk_blocks ~block_size:4096 ()

(** Format the machine's device. [cas_blocks] reserves a device-tail CAS
    region on the xv6fs stacks (Bento, FUSE) and must match the value
    given to {!mount}. Raises [Kernel.Errno.Error]. *)
let mkfs ?cas_blocks k machine =
  ok
    (match k with
    | Bento | Fuse -> Bento.Bentofs.mkfs ?cas_blocks machine xv6
    | Ckernel -> Vfs_xv6.mkfs machine
    | Ext4 -> Ext4sim.Ext4.mkfs machine)

(** Mount — for the xv6-format stacks this replays the log, for ext4 it
    runs journal recovery — and return the syscall layer plus the
    function that unmounts. [page_cap] and [cas_blocks] are honoured by
    the xv6fs stacks (Bento, FUSE), [wb_batch] by Bento only; the C and
    ext4 baselines ignore them. Raises [Kernel.Errno.Error]. *)
let mount ?background ?page_cap ?cas_blocks ?wb_batch k machine =
  let vfs, unmount =
    match k with
    | Bento ->
        let vfs, h =
          ok
            (Bento.Bentofs.mount ?background ?page_cap ?wb_batch ?cas_blocks
               machine xv6)
        in
        (vfs, fun () -> Bento.Bentofs.unmount vfs h)
    | Ckernel ->
        let vfs = ok (Vfs_xv6.mount ?background machine) in
        (vfs, fun () -> Vfs_xv6.unmount vfs)
    | Fuse ->
        let vfs, h =
          ok (Bento_user.mount ?background ?page_cap ?cas_blocks machine xv6)
        in
        (vfs, fun () -> Bento_user.unmount vfs h)
    | Ext4 ->
        let vfs, h = ok (Ext4sim.Ext4.mount ?background machine) in
        (vfs, fun () -> Ext4sim.Ext4.unmount vfs h)
  in
  (Kernel.Os.create vfs, unmount)

(** In a fiber on [machine]: mkfs, mount, [f os], unmount; then drain the
    simulation and return [f]'s result. *)
let run ?background ?page_cap ?cas_blocks ?wb_batch k machine f =
  let result = ref None in
  Kernel.Machine.spawn ~name:(name k) machine (fun () ->
      mkfs ?cas_blocks k machine;
      let os, unmount =
        mount ?background ?page_cap ?cas_blocks ?wb_batch k machine
      in
      result := Some (f os);
      unmount ());
  Kernel.Machine.run machine;
  match !result with
  | Some r -> r
  | None -> failwith ("Stacks.run: " ^ name k ^ " produced no result")

(** Offline consistency check of the device's current contents: the
    errors found, [] when clean. *)
let fsck k machine =
  let dev = Kernel.Machine.disk machine in
  match k with
  | Bento | Ckernel | Fuse -> (Xv6fs.Fsck.check_device dev).Xv6fs.Fsck.errors
  | Ext4 -> (Ext4sim.Fsck4.check_device dev).Ext4sim.Fsck4.errors

(** Deliberate bug injection for checker self-tests: zero the block that
    recovery reads first (the xv6 log header / the JBD2 journal
    superblock), which silently turns replay into a no-op — the class of
    bug the crash checker exists to catch. *)
let nuke_log k machine =
  let dev = Kernel.Machine.disk machine in
  let sb = Device.Ssd.Offline.read dev 1 in
  let blk =
    match k with
    | Bento | Ckernel | Fuse -> (
        match Xv6fs.Layout.get_superblock sb with
        | Ok sb -> sb.Xv6fs.Layout.logstart
        | Error m -> failwith ("nuke_log: bad xv6 superblock: " ^ m))
    | Ext4 -> (
        match Ext4sim.Layout4.get_superblock sb with
        | Ok sb -> sb.Ext4sim.Layout4.journal_start
        | Error m -> failwith ("nuke_log: bad ext4 superblock: " ^ m))
  in
  Device.Ssd.Offline.write dev blk (Bytes.make (Device.Ssd.block_size dev) '\000')
