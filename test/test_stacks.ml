(** Tests of the stack facade: every stack comes up, round-trips a file
    and leaves a clean image; names round-trip; a finished machine —
    even one crashed with a CAS store and a pushdown program still
    attached — is garbage-collected, so no module-level table holds it;
    remounting does not grow the heap, so an unmounted stack keeps
    nothing but its device image; and fsck of a large image allocates
    in proportion to its metadata. *)

open Helpers

let tc = Alcotest.test_case

let test_round_trip k () =
  let machine = Stacks.machine ~disk_blocks:default_disk_blocks () in
  let data = payload 20000 in
  let got =
    Stacks.run ~background:false k machine (fun os ->
        ok (Kernel.Os.mkdir os "/d");
        ok (Kernel.Os.write_file os "/d/f" data);
        ok (Kernel.Os.read_file os "/d/f"))
  in
  Alcotest.(check bytes) "file reads back" data got;
  Alcotest.(check (list string)) "fsck clean after unmount" []
    (Stacks.fsck k machine)

let test_names () =
  List.iter
    (fun k ->
      Alcotest.(check bool) (Stacks.name k ^ " round-trips") true
        (Stacks.of_string (Stacks.name k) = Some k))
    Stacks.all;
  Alcotest.(check bool) "unknown name rejected" true
    (Stacks.of_string "xv6" = None)

let test_dropped_machine_is_collected () =
  let probe = Weak.create 1 in
  let crashed_machine () =
    let machine = Stacks.machine ~disk_blocks:default_disk_blocks () in
    let cas_blocks = 1024 in
    Kernel.Machine.spawn machine (fun () ->
        Stacks.mkfs ~cas_blocks Stacks.Bento machine;
        let os, _unmount =
          Stacks.mount ~background:false ~cas_blocks Stacks.Bento machine
        in
        let reg = Kernel.Pushdown.registry machine in
        let cap = Kernel.Pushdown.grant reg ~client:"probe" in
        Result.get_ok
          (Kernel.Pushdown.register reg ~cap ~name:"f"
             (Kernel.Pushdown.Dir_filter { contains = "f" }));
        ok (Kernel.Os.write_file os "/f" (payload 8192));
        (* power cut: never unmounted, so nothing is unregistered *)
        Device.Ssd.crash ~survive:0.5 ~rng:(Sim.Rng.create 1)
          (Kernel.Machine.disk machine));
    Kernel.Machine.run machine;
    Alcotest.(check bool) "CAS store attached" true
      (Kernel.Cas.of_machine machine <> None);
    Weak.set probe 0 (Some machine)
  in
  crashed_machine ();
  Gc.full_major ();
  Alcotest.(check bool) "machine collected" false (Weak.check probe 0)

let live_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8))
  /. 1048576.

(* Each mount reads the whole file through its own caches; once unmounted
   they must be empty or unreachable, so the live heap after the fifth
   cycle matches the first. *)
let test_remounts_keep_heap_flat k () =
  let machine = Stacks.machine ~disk_blocks:default_disk_blocks () in
  let data = payload (4 * 1024 * 1024) in
  let in_fiber f =
    let result = ref None in
    Kernel.Machine.spawn machine (fun () -> result := Some (f ()));
    Kernel.Machine.run machine;
    Option.get !result
  in
  in_fiber (fun () ->
      Stacks.mkfs k machine;
      let os, unmount = Stacks.mount k machine in
      ok (Kernel.Os.write_file os "/f" data);
      unmount ());
  let cycle () =
    let got =
      in_fiber (fun () ->
          let os, unmount = Stacks.mount k machine in
          let got = ok (Kernel.Os.read_file os "/f") in
          unmount ();
          got)
    in
    Alcotest.(check bool) "file reads back" true (Bytes.equal data got);
    live_mb ()
  in
  let first = cycle () in
  for _ = 2 to 4 do
    ignore (cycle ())
  done;
  let growth = cycle () -. first in
  (* Both stay live through every measurement, the last one included. *)
  ignore (Sys.opaque_identity (machine, data));
  if growth >= 1.0 then
    Alcotest.failf "live heap grew %.1f MB from remount 1 to 5" growth

(* fsck reads the image in place, so checking a freshly formatted 1 GiB
   device allocates in proportion to its metadata, not its 262,144
   blocks: a checker that copied one 4 KB block per data block it
   checks would allocate a gigabyte here. *)
let fsck_alloc_bound_mb = 16.

let test_fsck_allocates_o_metadata k () =
  let machine = Stacks.machine ~disk_blocks:262_144 () in
  Kernel.Machine.spawn machine (fun () -> Stacks.mkfs k machine);
  Kernel.Machine.run machine;
  let before = Gc.allocated_bytes () in
  let errors = Stacks.fsck k machine in
  let mb = (Gc.allocated_bytes () -. before) /. 1048576. in
  Alcotest.(check (list string)) "fresh image is clean" [] errors;
  if mb >= fsck_alloc_bound_mb then
    Alcotest.failf "fsck of a fresh 1 GiB image allocated %.1f MB (bound %.0f)"
      mb fsck_alloc_bound_mb

let suite =
  List.map
    (fun k ->
      tc (Stacks.name k ^ ": mkfs, mount, file round trip, fsck clean") `Quick
        (test_round_trip k))
    Stacks.all
  @ List.map
      (fun k ->
        tc (Stacks.name k ^ ": remounts keep the heap flat") `Quick
          (test_remounts_keep_heap_flat k))
      Stacks.all
  @ [
      tc "names round-trip through of_string" `Quick test_names;
      tc "dropped machine is collected" `Quick
        test_dropped_machine_is_collected;
    ]
  @ List.map
      (fun k ->
        tc (Stacks.name k ^ ": fsck of a 1 GiB image allocates O(metadata)")
          `Quick (test_fsck_allocates_o_metadata k))
      Stacks.[ Bento; Ext4 ]
