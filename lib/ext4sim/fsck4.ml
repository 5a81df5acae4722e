(** Offline consistency checker for the simplified ext4 format. See
    fsck4.mli. Blocks are read in place through [Device.Ssd.Offline.view];
    nothing here mutates a block. *)

module L = Layout4

type report = {
  errors : string list;
  warnings : string list;
  files : int;
  directories : int;
  symlinks : int;
  used_blocks : int;
}

let ok r = r.errors = []

let pp_report ppf r =
  Fmt.pf ppf "fsck.ext4: %d files, %d dirs, %d symlinks, %d used blocks@."
    r.files r.directories r.symlinks r.used_blocks;
  List.iter (fun e -> Fmt.pf ppf "  ERROR: %s@." e) r.errors;
  List.iter (fun w -> Fmt.pf ppf "  warn: %s@." w) r.warnings

let bit_get data bit =
  Char.code (Bytes.get data (bit / 8)) land (1 lsl (bit mod 8)) <> 0

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
        symlinks = 0;
        used_blocks = 0;
      }
  | Ok sb ->
      if sb.L.total_blocks > nblocks then
        err "superblock claims %d blocks, device has %d" sb.L.total_blocks
          nblocks;
      (* load all live inodes with their full extent lists *)
      let inodes = Hashtbl.create 1024 in
      for ino = 1 to L.total_inodes sb do
        let data = read_block (L.inode_block sb ino)
        and slot = L.inode_slot sb ino in
        (* a free slot is skipped without decoding it *)
        if L.inode_in_use data ~slot then
          match L.get_dinode data ~slot with
          | Error msg -> err "inode %d: %s" ino msg
          | Ok d ->
              (* expand inline + leaf extents *)
              let exts = ref [] in
              let remaining = ref d.L.nextents in
              Array.iter
                (fun e ->
                  if !remaining > 0 then begin
                    exts := e :: !exts;
                    decr remaining
                  end)
                d.L.inline;
              Array.iter
                (fun leaf ->
                  if leaf <> 0 && !remaining > 0 then begin
                    (* an out-of-range leaf is reported with the
                       block references below *)
                    if leaf < sb.L.total_blocks then begin
                      let ldata = read_block leaf in
                      let n = min (L.get_leaf_count ldata) !remaining in
                      for i = 0 to n - 1 do
                        exts := L.get_leaf_extent ldata i :: !exts
                      done;
                      remaining := !remaining - n
                    end
                  end)
                d.L.leaves;
              if !remaining > 0 then
                err "inode %d: %d extents missing from leaves" ino !remaining;
              Hashtbl.add inodes ino (d, List.rev !exts)
      done;
      (* block ownership: every extent block and every leaf block lies in
         a group's data area, belongs to exactly one inode and is marked
         in its group's bitmap *)
      let owner = Hashtbl.create 4096 in
      let groups_end = L.group_start sb sb.L.ngroups in
      let claim ino what blk =
        if blk < sb.L.first_group_block || blk >= groups_end then
          err "inode %d: %s %d out of range" ino what blk
        else begin
          let g = L.group_of_block sb blk in
          if blk < L.group_data_start sb g then
            err "inode %d: %s %d is group %d metadata" ino what blk g;
          (match Hashtbl.find_opt owner blk with
          | Some other ->
              err "%s %d owned by inode %d and inode %d" what blk other ino
          | None -> Hashtbl.add owner blk ino);
          let bm = read_block (L.group_block_bitmap sb g) in
          if not (bit_get bm (blk - L.group_start sb g)) then
            err "%s %d used by inode %d but free in bitmap" what blk ino
        end
      in
      Hashtbl.iter
        (fun ino ((d : L.dinode), exts) ->
          Array.iter
            (fun leaf -> if leaf <> 0 then claim ino "leaf block" leaf)
            d.L.leaves;
          List.iter
            (fun (e : L.extent) ->
              for j = 0 to e.L.e_len - 1 do
                claim ino "block" (e.L.e_physical + j)
              done)
            exts)
        inodes;
      (* reverse bitmap check: each group's own metadata is marked used,
         and no data-area block is marked used unless an inode owns it *)
      for g = 0 to sb.L.ngroups - 1 do
        let gstart = L.group_start sb g and data = L.group_data_start sb g in
        let bm = read_block (L.group_block_bitmap sb g) in
        for blk = gstart to data - 1 do
          if not (bit_get bm (blk - gstart)) then
            err "group %d metadata block %d free in bitmap" g blk
        done;
        for blk = data to gstart + sb.L.group_size - 1 do
          if bit_get bm (blk - gstart) && not (Hashtbl.mem owner blk) then
            err "block %d marked used but unreferenced" blk
        done
      done;
      (* inode bitmap cross-check *)
      for ino = 1 to L.total_inodes sb do
        let g = L.group_of_ino sb ino in
        let bm = read_block (L.group_inode_bitmap sb g) in
        let marked = bit_get bm (L.index_in_group sb ino) in
        let live = Hashtbl.mem inodes ino in
        if live && not marked then err "inode %d live but free in bitmap" ino;
        if marked && not live then
          warn "inode %d marked used but free on disk" ino
      done;
      (* directory graph *)
      let lookup_block exts logical =
        let rec go = function
          | [] -> 0
          | (e : L.extent) :: rest ->
              if logical >= e.L.e_logical && logical < e.L.e_logical + e.L.e_len
              then e.L.e_physical + (logical - e.L.e_logical)
              else go rest
        in
        go exts
      in
      let nlink_seen = Hashtbl.create 256 in
      let bump i =
        Hashtbl.replace nlink_seen i
          (1 + Option.value ~default:0 (Hashtbl.find_opt nlink_seen i))
      in
      let files = ref 0 and dirs = ref 0 and links = ref 0 in
      Hashtbl.iter
        (fun ino ((d : L.dinode), exts) ->
          match d.L.kind with
          | L.K_dir ->
              incr dirs;
              let total = d.L.size / L.dirent_size in
              let nb = (d.L.size + L.block_size - 1) / L.block_size in
              for bi = 0 to nb - 1 do
                let phys = lookup_block exts bi in
                if phys <> 0 then begin
                  let data = read_block phys in
                  let hi =
                    min L.dirents_per_block (total - (bi * L.dirents_per_block))
                  in
                  for slot = 0 to hi - 1 do
                    match L.get_dirent data ~slot with
                    | None -> ()
                    | Some (child, name) ->
                        bump child;
                        if
                          name <> "." && name <> ".."
                          && not (Hashtbl.mem inodes child)
                        then
                          err "dir %d: entry %S points to free inode %d" ino
                            name child
                  done
                end
              done
          | L.K_file -> incr files
          | L.K_symlink -> incr links
          | L.K_free -> ())
        inodes;
      Hashtbl.iter
        (fun ino ((d : L.dinode), _) ->
          let seen = Option.value ~default:0 (Hashtbl.find_opt nlink_seen ino) in
          if seen <> d.L.nlink then
            err "inode %d: nlink %d but %d references" ino d.L.nlink seen)
        inodes;
      {
        errors = List.rev !errors;
        warnings = List.rev !warnings;
        files = !files;
        directories = !dirs;
        symlinks = !links;
        used_blocks = Hashtbl.length owner;
      }
