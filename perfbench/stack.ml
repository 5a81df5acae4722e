(** The four file-system stacks, driven only through their public mkfs,
    mount, unmount and offline fsck entry points. *)

type t = Bento | Ckernel | Fuse | Ext4

(* The order every workload runs them in. *)
let all = [ Bento; Ckernel; Fuse; Ext4 ]

let name = function
  | Bento -> "bento"
  | Ckernel -> "ckernel"
  | Fuse -> "fuse"
  | Ext4 -> "ext4"

let xv6 : (module Bento.Fs_api.FS_MAKER) = (module Xv6fs.Fs.Make)

let mkfs stack machine =
  match stack with
  | Bento | Fuse -> Bento.Bentofs.mkfs machine xv6
  | Ckernel -> Vfs_xv6.mkfs machine
  | Ext4 -> Ext4sim.Ext4.mkfs machine

(** Mount; the returned function unmounts. *)
let mount stack machine =
  let ( let* ) = Result.bind in
  match stack with
  | Bento ->
      let* vfs, h = Bento.Bentofs.mount machine xv6 in
      Ok (vfs, fun () -> Bento.Bentofs.unmount vfs h)
  | Ckernel ->
      let* vfs = Vfs_xv6.mount machine in
      Ok (vfs, fun () -> Vfs_xv6.unmount vfs)
  | Fuse ->
      let* vfs, h = Bento_user.mount machine xv6 in
      Ok (vfs, fun () -> Bento_user.unmount vfs h)
  | Ext4 ->
      let* vfs, h = Ext4sim.Ext4.mount machine in
      Ok (vfs, fun () -> Ext4sim.Ext4.unmount vfs h)

(** Consistency errors of the unmounted device image. *)
let fsck stack machine =
  let disk = Kernel.Machine.disk machine in
  match stack with
  | Bento | Ckernel | Fuse -> (Xv6fs.Fsck.check_device disk).Xv6fs.Fsck.errors
  | Ext4 -> (Ext4sim.Fsck4.check_device disk).Ext4sim.Fsck4.errors
