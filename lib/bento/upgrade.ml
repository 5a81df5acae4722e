(** Online upgrade of a running Bento file system (§4.8).

    Linux requires unmounting (and stopping every service using the file
    system) to replace a file-system module. Bento instead quiesces
    in-flight operations at the BentoFS dispatch lock, asks the old version
    for its transferable in-memory state, instantiates the new module
    against the *same* kernel services (so kernel-held structures — the
    buffer cache, open-inode references — survive), restores the state into
    the new instance, and swaps the dispatch table. Applications keep their
    open files; they only observe a small delay. *)

type report = {
  from_version : int;
  to_version : int;
  pause_ns : int64;  (** how long operations were quiesced *)
  transferred_ints : int;
  transferred_blobs : int;
  transferred_open_inodes : int;
}

exception Upgrade_failed of string

(** Swap the running file system to [maker]. Must be called from a fiber.
    The new instance's [restore_state] is handed everything the old
    instance chose to transfer. *)
let upgrade (h : Bentofs.handle) (maker : (module Fs_api.FS_MAKER)) : report =
  let machine = Bentofs.machine h in
  let t0 = Kernel.Machine.now machine in
  (* Quiesce: wait for in-flight operations to drain, block new ones. *)
  Sim.Sync.Rwlock.with_write h.Bentofs.dispatch_lock (fun () ->
      Kernel.Machine.cpu_work machine
        (Kernel.Machine.cost machine).Kernel.Cost.upgrade_quiesce;
      let old = h.Bentofs.current in
      let state = old.Fs_api.d_extract_state () in
      let module K = (val h.Bentofs.services : Bentoks.KSERVICES) in
      let module Maker = (val maker) in
      let module F = Maker (K) in
      match F.mount () with
      | Error e ->
          raise
            (Upgrade_failed
               (Printf.sprintf "new version failed to mount: %s"
                  (Kernel.Errno.to_string e)))
      | Ok fs ->
          F.restore_state fs state;
          h.Bentofs.current <- Fs_api.dispatch_of machine (module F) fs;
          h.Bentofs.upgrades <- h.Bentofs.upgrades + 1;
          Kernel.Printk.info machine
            "bento: upgraded %s v%d -> v%d (%d open inodes transferred)"
            F.name old.Fs_api.d_version F.version
            (List.length state.Upgrade_state.open_inodes);
          let t1 = Kernel.Machine.now machine in
          {
            from_version = old.Fs_api.d_version;
            to_version = F.version;
            pause_ns = Int64.sub t1 t0;
            transferred_ints = List.length state.Upgrade_state.ints;
            transferred_blobs = List.length state.Upgrade_state.blobs;
            transferred_open_inodes =
              List.length state.Upgrade_state.open_inodes;
          })
