(** Offline consistency checker for the xv6 on-disk format.

    Walks the durable image the way e2fsck walks ext4: superblock, inode
    table, block references, bitmap cross-check, directory graph, link
    counts. Used by the crash-injection tests to prove that whatever a
    power failure leaves behind, log recovery restores a consistent file
    system. *)

module L = Layout

type report = {
  errors : string list;
  warnings : string list;
  files : int;
  directories : int;
  used_blocks : int;
  pending_log : int;  (** committed-but-uninstalled blocks in the log *)
}

let ok r = r.errors = []

let pp_report ppf r =
  Fmt.pf ppf "fsck: %d files, %d dirs, %d used blocks, %d pending log blocks@."
    r.files r.directories r.used_blocks r.pending_log;
  List.iter (fun e -> Fmt.pf ppf "  ERROR: %s@." e) r.errors;
  List.iter (fun w -> Fmt.pf ppf "  warn: %s@." w) r.warnings

let bitmap_get data bit =
  Char.code (Bytes.get data (bit / 8)) land (1 lsl (bit mod 8)) <> 0

(** Check a device's current contents, or with [~stable:true] only what
    would survive a crash right now (the post-crash durable state after
    log recovery). Blocks are read in place through
    [Device.Ssd.Offline.view], so a check costs O(metadata) allocation
    whatever the device size; nothing here mutates a block. *)
let check_device ?stable dev : report =
  let read_block = Device.Ssd.Offline.view ?stable dev in
  let nblocks = Device.Ssd.nblocks dev in
  let errors = ref [] and warnings = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let warn fmt = Printf.ksprintf (fun s -> warnings := s :: !warnings) fmt in
  match L.get_superblock (read_block 1) with
  | Error msg ->
      {
        errors = [ "superblock: " ^ msg ];
        warnings = [];
        files = 0;
        directories = 0;
        used_blocks = 0;
        pending_log = 0;
      }
  | Ok sb ->
      if sb.L.size > nblocks then
        err "superblock size %d exceeds device %d" sb.L.size nblocks;
      (* log state *)
      let log_header = L.get_log_header (read_block sb.L.logstart) in
      if log_header.L.n > 0 then
        warn "log holds %d uninstalled blocks (recovery pending)" log_header.L.n;
      (* gather inodes *)
      let ninodeblocks =
        (sb.L.ninodes + L.inodes_per_block - 1) / L.inodes_per_block
      in
      let inodes = Hashtbl.create 1024 in
      for b = 0 to ninodeblocks - 1 do
        let data = read_block (sb.L.inodestart + b) in
        for slot = 0 to L.inodes_per_block - 1 do
          let inum = (b * L.inodes_per_block) + slot in
          if inum >= 1 && inum < sb.L.ninodes then
            match L.get_dinode data ~slot with
            | Ok d -> if d.L.ftype <> L.F_free then Hashtbl.add inodes inum d
            | Error msg -> err "inode %d: %s" inum msg
        done
      done;
      (* walk block references *)
      let owner : (int, int) Hashtbl.t = Hashtbl.create 4096 in
      let claim inum blk =
        if blk < sb.L.datastart || blk >= sb.L.size then
          err "inode %d references out-of-range block %d" inum blk
        else
          match Hashtbl.find_opt owner blk with
          | Some other ->
              err "block %d referenced by both inode %d and inode %d" blk other
                inum
          | None -> Hashtbl.add owner blk inum
      in
      let read_indirect inum blk f =
        if blk <> 0 then begin
          claim inum blk;
          if blk >= sb.L.datastart && blk < sb.L.size then begin
            let data = read_block blk in
            for i = 0 to L.nindirect - 1 do
              let child = Util.Bytesio.get_u32 data (i * 4) in
              if child <> 0 then f child
            done
          end
        end
      in
      Hashtbl.iter
        (fun inum (d : L.dinode) ->
          let expected_blocks = (d.L.size + L.block_size - 1) / L.block_size in
          let counted = ref 0 in
          for i = 0 to L.ndirect - 1 do
            if d.L.addrs.(i) <> 0 then begin
              claim inum d.L.addrs.(i);
              incr counted
            end
          done;
          read_indirect inum d.L.addrs.(L.ndirect) (fun child ->
              claim inum child;
              incr counted);
          (* double indirect *)
          if d.L.addrs.(L.ndirect + 1) <> 0 then begin
            claim inum d.L.addrs.(L.ndirect + 1);
            let data = read_block d.L.addrs.(L.ndirect + 1) in
            for i = 0 to L.nindirect - 1 do
              let mid = Util.Bytesio.get_u32 data (i * 4) in
              read_indirect inum mid (fun child ->
                  claim inum child;
                  incr counted)
            done
          end;
          if !counted > expected_blocks then
            warn "inode %d: %d blocks mapped for size %d" inum !counted d.L.size)
        inodes;
      (* bitmap cross-check *)
      let used = ref 0 in
      for blk = sb.L.datastart to sb.L.size - 1 do
        let bm = read_block (L.bblock sb blk) in
        let marked = bitmap_get bm (L.bbit blk) in
        let referenced = Hashtbl.mem owner blk in
        if marked then incr used;
        if referenced && not marked then
          err "block %d in use by inode %d but free in bitmap" blk
            (Hashtbl.find owner blk);
        if marked && not referenced then
          err "block %d marked used but unreferenced" blk
      done;
      (* directory graph + link counts *)
      let nlink_seen = Hashtbl.create 1024 in
      let bump inum =
        Hashtbl.replace nlink_seen inum
          (1 + Option.value ~default:0 (Hashtbl.find_opt nlink_seen inum))
      in
      let dir_blocks (d : L.dinode) =
        (* enumerate data blocks of a (small) directory *)
        let out = ref [] in
        for i = 0 to L.ndirect - 1 do
          if d.L.addrs.(i) <> 0 then out := d.L.addrs.(i) :: !out
        done;
        if d.L.addrs.(L.ndirect) <> 0 then begin
          let data = read_block d.L.addrs.(L.ndirect) in
          for i = 0 to L.nindirect - 1 do
            let child = Util.Bytesio.get_u32 data (i * 4) in
            if child <> 0 then out := child :: !out
          done
        end;
        List.rev !out
      in
      let files = ref 0 and dirs = ref 0 in
      Hashtbl.iter
        (fun inum (d : L.dinode) ->
          match d.L.ftype with
          | L.F_dir -> (
              incr dirs;
              let seen_dot = ref false and seen_dotdot = ref false in
              List.iter
                (fun blk ->
                  let data = read_block blk in
                  for slot = 0 to L.dirents_per_block - 1 do
                    match L.get_dirent data ~slot with
                    | None -> ()
                    | Some (child, name) -> (
                        if name = "." then begin
                          seen_dot := true;
                          bump child;
                          if child <> inum then
                            err "dir %d: \".\" points to %d" inum child
                        end
                        else if name = ".." then begin
                          seen_dotdot := true;
                          bump child;
                          if not (Hashtbl.mem inodes child) then
                            err "dir %d: \"..\" points to free inode %d" inum
                              child
                        end
                        else
                          match Hashtbl.find_opt inodes child with
                          | None ->
                              err "dir %d: entry %S points to free inode %d"
                                inum name child
                          | Some _ -> bump child)
                  done)
                (dir_blocks d);
              if not !seen_dot then err "dir %d missing \".\"" inum;
              if not !seen_dotdot then err "dir %d missing \"..\"" inum)
          | L.F_file | L.F_symlink -> incr files
          | L.F_free -> ())
        inodes;
      (* link-count verification: every dirent (including "." and "..")
         bumped its target, so for every live inode nlink must equal the
         reference count. *)
      Hashtbl.iter
        (fun inum (d : L.dinode) ->
          let seen =
            Option.value ~default:0 (Hashtbl.find_opt nlink_seen inum)
          in
          if d.L.ftype <> L.F_free && seen <> d.L.nlink then
            err "inode %d: nlink %d but %d directory references" inum d.L.nlink
              seen)
        inodes;
      (* reachability from root *)
      (match Hashtbl.find_opt inodes L.root_ino with
      | None -> err "root inode missing"
      | Some root when root.L.ftype <> L.F_dir -> err "root is not a directory"
      | Some _ ->
          let visited = Hashtbl.create 1024 in
          let rec walk inum =
            if not (Hashtbl.mem visited inum) then begin
              Hashtbl.add visited inum ();
              match Hashtbl.find_opt inodes inum with
              | Some d when d.L.ftype = L.F_dir ->
                  List.iter
                    (fun blk ->
                      let data = read_block blk in
                      for slot = 0 to L.dirents_per_block - 1 do
                        match L.get_dirent data ~slot with
                        | Some (child, name) when name <> "." && name <> ".." ->
                            walk child
                        | _ -> ()
                      done)
                    (dir_blocks d)
              | _ -> ()
            end
          in
          walk L.root_ino;
          Hashtbl.iter
            (fun inum _ ->
              if not (Hashtbl.mem visited inum) then
                err "inode %d allocated but unreachable from root" inum)
            inodes);
      {
        errors = List.rev !errors;
        warnings = List.rev !warnings;
        files = !files;
        directories = !dirs;
        used_blocks = !used;
        pending_log = log_header.L.n;
      }
