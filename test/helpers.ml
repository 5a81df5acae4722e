(** Shared scaffolding for the test suites: build a machine, mkfs + mount a
    file system, run test bodies inside a simulation fiber. *)

let default_disk_blocks = 65536 (* 256 MB *)

let ok = Kernel.Errno.ok_exn

let xv6_maker : (module Bento.Fs_api.FS_MAKER) = (module Xv6fs.Fs.Make)

(** Run [f] as a fiber on a fresh machine and drain the simulation. *)
let in_sim ?(disk_blocks = default_disk_blocks) f =
  let machine = Kernel.Machine.create ~disk_blocks ~block_size:4096 () in
  let finished = ref false in
  Kernel.Machine.spawn ~name:"test" machine (fun () ->
      f machine;
      finished := true);
  Kernel.Machine.run machine;
  Alcotest.(check bool) "test fiber ran to completion" true !finished

(** mkfs + mount xv6fs over Bento, hand [f] the Os syscall layer. *)
let with_xv6 ?disk_blocks ?(maker = xv6_maker) f =
  in_sim ?disk_blocks (fun machine ->
      ok (Bento.Bentofs.mkfs machine maker);
      let vfs, handle =
        ok (Bento.Bentofs.mount ~background:false machine maker)
      in
      let os = Kernel.Os.create vfs in
      f machine os vfs handle;
      Bento.Bentofs.unmount vfs handle)

(** mkfs + mount stack [k] through the facade ([background:false]), hand
    [f] the Os syscall layer, unmount. *)
let with_stack ?disk_blocks k f =
  in_sim ?disk_blocks (fun machine ->
      Stacks.mkfs k machine;
      let os, unmount = Stacks.mount ~background:false k machine in
      f os;
      unmount ())

(** Requests the kernel side has sent over a FUSE mount's wire so far. *)
let fuse_requests (h : Bento_user.mount_handle) =
  Sim.Stats.Counter.get_int
    (Sim.Stats.counter
       (Fusesim.Transport.stats h.Bento_user.transport)
       "requests")

let bytes_of_string = Bytes.of_string

(** Deterministic pseudo-random payload of [n] bytes. *)
let payload ?(seed = 7) n =
  let rng = Sim.Rng.create seed in
  Bytes.init n (fun _ -> Char.chr (Sim.Rng.int rng 256))

(** Seed for a randomized test: [default] unless overridden with
    BENTO_SEED=n in the environment. *)
let test_seed default =
  match Sys.getenv_opt "BENTO_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> default)
  | None -> default

(** Run a randomized test body with its seed; on failure, print the seed
    and how to reproduce the exact run. *)
let with_seed ?(default = 42) f =
  let seed = test_seed default in
  try f seed
  with e ->
    Printf.eprintf
      "[randomized test failed with seed %d: rerun with BENTO_SEED=%d]\n%!"
      seed seed;
    raise e

let check_errno = Alcotest.testable Kernel.Errno.pp ( = )

let check_res name expected = function
  | Ok _ -> Alcotest.failf "%s: expected error %s but succeeded" name
              (Kernel.Errno.to_string expected)
  | Error e -> Alcotest.check check_errno name expected e
