(** Tests of the stack facade: every stack comes up, round-trips a file
    and leaves a clean image; names round-trip; and a finished machine —
    even one crashed with a CAS store and a pushdown program still
    attached — is garbage-collected, so no module-level table holds it. *)

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

let suite =
  List.map
    (fun k ->
      tc (Stacks.name k ^ ": mkfs, mount, file round trip, fsck clean") `Quick
        (test_round_trip k))
    Stacks.all
  @ [
      tc "names round-trip through of_string" `Quick test_names;
      tc "dropped machine is collected" `Quick
        test_dropped_machine_is_collected;
    ]
