(** On-disk format of the simplified ext4 (see DESIGN.md: mechanisms kept —
    block groups, extents, a JBD2-style data journal — exact ext4 byte
    layout not attempted).

    Disk layout (blocks):
    [ 0 | 1: superblock | 2: group descriptors | journal | group 0 | group 1 | ... ]

    Each group: [ block bitmap | inode bitmap | inode table | data ... ] *)

let block_size = 4096
let magic = 0xEF53_0001
let root_ino = 1

let inode_size = 256
let inodes_per_block = block_size / inode_size

let inline_extents = 4
let leaf_ptrs = 8
let extents_per_leaf = (block_size - 8) / 12

(** Max mappable file blocks: inline + leaf extents, each extent up to
    [max_extent_len] blocks. *)
let max_extent_len = 32768

let max_file_blocks = (inline_extents + (leaf_ptrs * extents_per_leaf)) * 16
(* a conservative bound used for EFBIG checks; with contiguous allocation
   real files go far beyond this in practice *)

let max_file_size = 1 lsl 40 (* 1 TB: extents make the format limit moot *)

type superblock = {
  total_blocks : int;
  ngroups : int;
  group_size : int;  (** blocks per group *)
  inodes_per_group : int;
  journal_start : int;
  journal_len : int;
  first_group_block : int;
}

let put_superblock b sb =
  Util.Bytesio.set_u32 b 0 magic;
  Util.Bytesio.set_u32 b 4 sb.total_blocks;
  Util.Bytesio.set_u32 b 8 sb.ngroups;
  Util.Bytesio.set_u32 b 12 sb.group_size;
  Util.Bytesio.set_u32 b 16 sb.inodes_per_group;
  Util.Bytesio.set_u32 b 20 sb.journal_start;
  Util.Bytesio.set_u32 b 24 sb.journal_len;
  Util.Bytesio.set_u32 b 28 sb.first_group_block

let get_superblock b : (superblock, string) result =
  if Util.Bytesio.get_u32 b 0 <> magic then Error "ext4: bad magic"
  else
    Ok
      {
        total_blocks = Util.Bytesio.get_u32 b 4;
        ngroups = Util.Bytesio.get_u32 b 8;
        group_size = Util.Bytesio.get_u32 b 12;
        inodes_per_group = Util.Bytesio.get_u32 b 16;
        journal_start = Util.Bytesio.get_u32 b 20;
        journal_len = Util.Bytesio.get_u32 b 24;
        first_group_block = Util.Bytesio.get_u32 b 28;
      }

(* Group geometry. *)
let inode_table_blocks sb = (sb.inodes_per_group + inodes_per_block - 1) / inodes_per_block
let group_start sb g = sb.first_group_block + (g * sb.group_size)
let group_block_bitmap sb g = group_start sb g
let group_inode_bitmap sb g = group_start sb g + 1
let group_inode_table sb g = group_start sb g + 2
let group_data_start sb g = group_inode_table sb g + inode_table_blocks sb
let group_of_block sb blk = (blk - sb.first_group_block) / sb.group_size

let total_inodes sb = sb.ngroups * sb.inodes_per_group

(* Inode numbers are 1-based; ino i lives in group (i-1)/ipg. *)
let group_of_ino sb ino = (ino - 1) / sb.inodes_per_group
let index_in_group sb ino = (ino - 1) mod sb.inodes_per_group

let inode_block sb ino =
  group_inode_table sb (group_of_ino sb ino)
  + (index_in_group sb ino / inodes_per_block)

let inode_slot sb ino = index_in_group sb ino mod inodes_per_block

type extent = { e_logical : int; e_physical : int; e_len : int }

type kind4 = K_free | K_dir | K_file | K_symlink

let kind_to_int = function K_free -> 0 | K_dir -> 1 | K_file -> 2 | K_symlink -> 3

let kind_of_int = function
  | 0 -> Ok K_free
  | 1 -> Ok K_dir
  | 2 -> Ok K_file
  | 3 -> Ok K_symlink
  | n -> Error (Printf.sprintf "ext4: bad inode kind %d" n)

type dinode = {
  kind : kind4;
  nlink : int;
  size : int;
  nextents : int;  (** total extents, inline + in leaves *)
  inline : extent array;  (** first [inline_extents] *)
  leaves : int array;  (** leaf block pointers, 0 = absent *)
}

let zero_dinode =
  {
    kind = K_free;
    nlink = 0;
    size = 0;
    nextents = 0;
    inline = Array.make inline_extents { e_logical = 0; e_physical = 0; e_len = 0 };
    leaves = Array.make leaf_ptrs 0;
  }

let put_extent b off (e : extent) =
  Util.Bytesio.set_u32 b off e.e_logical;
  Util.Bytesio.set_u32 b (off + 4) e.e_physical;
  Util.Bytesio.set_u32 b (off + 8) e.e_len

let get_extent b off =
  {
    e_logical = Util.Bytesio.get_u32 b off;
    e_physical = Util.Bytesio.get_u32 b (off + 4);
    e_len = Util.Bytesio.get_u32 b (off + 8);
  }

let put_dinode block ~slot (d : dinode) =
  let off = slot * inode_size in
  Util.Bytesio.set_u16 block off (kind_to_int d.kind);
  Util.Bytesio.set_u16 block (off + 2) d.nlink;
  Util.Bytesio.set_int_as_u64 block (off + 8) d.size;
  Util.Bytesio.set_u16 block (off + 16) d.nextents;
  Array.iteri (fun i e -> put_extent block (off + 20 + (i * 12)) e) d.inline;
  Array.iteri
    (fun i p -> Util.Bytesio.set_u32 block (off + 20 + (inline_extents * 12) + (i * 4)) p)
    d.leaves

(** Whether an inode slot is allocated, without decoding it. *)
let inode_in_use block ~slot =
  Util.Bytesio.get_u16 block (slot * inode_size) <> kind_to_int K_free

let get_dinode block ~slot : (dinode, string) result =
  let off = slot * inode_size in
  match kind_of_int (Util.Bytesio.get_u16 block off) with
  | Error _ as e -> e
  | Ok kind ->
      Ok
        {
          kind;
          nlink = Util.Bytesio.get_u16 block (off + 2);
          size = Util.Bytesio.get_int64_as_int block (off + 8);
          nextents = Util.Bytesio.get_u16 block (off + 16);
          inline = Array.init inline_extents (fun i -> get_extent block (off + 20 + (i * 12)));
          leaves =
            Array.init leaf_ptrs (fun i ->
                Util.Bytesio.get_u32 block (off + 20 + (inline_extents * 12) + (i * 4)));
        }

(* Extent leaf blocks: u32 count, then packed extents. *)
let put_leaf_count b n = Util.Bytesio.set_u32 b 0 n
let get_leaf_count b = Util.Bytesio.get_u32 b 0
let put_leaf_extent b i e = put_extent b (8 + (i * 12)) e
let get_leaf_extent b i = get_extent b (8 + (i * 12))

(* Directory entries: same fixed 64-byte records as the xv6 build (a
   simplification of ext4's variable-length dirents; see DESIGN.md). *)
let dirent_size = 64
let max_name = dirent_size - 4 - 1
let dirents_per_block = block_size / dirent_size

let put_dirent block ~slot ~ino ~name =
  if String.length name > max_name then invalid_arg "ext4 put_dirent";
  let off = slot * dirent_size in
  Util.Bytesio.set_u32 block off ino;
  Util.Bytesio.set_string block ~off:(off + 4) ~width:(dirent_size - 4) name

let get_dirent block ~slot =
  let off = slot * dirent_size in
  let ino = Util.Bytesio.get_u32 block off in
  if ino = 0 then None
  else Some (ino, Util.Bytesio.get_string block ~off:(off + 4) ~width:(dirent_size - 4))

(* Journal block tags. *)
let j_descriptor = 0xD
let j_commit = 0xC

(* Journal superblock (first journal block): sequence + tail offset. *)
let put_jsb b ~sequence ~tail =
  Bytes.fill b 0 (Bytes.length b) '\000';
  Util.Bytesio.set_u32 b 0 0x4A53;
  Util.Bytesio.set_u64 b 8 (Int64.of_int sequence);
  Util.Bytesio.set_u32 b 16 tail

let get_jsb b =
  if Util.Bytesio.get_u32 b 0 <> 0x4A53 then None
  else
    Some
      ( Int64.to_int (Util.Bytesio.get_u64 b 8),
        Util.Bytesio.get_u32 b 16 )

(* Descriptor block: tag, sequence, count, checksum, then target block
   numbers. *)
let desc_max_targets = (block_size - 32) / 4

let put_descriptor b ~sequence ~count ~checksum ~targets =
  Bytes.fill b 0 (Bytes.length b) '\000';
  Util.Bytesio.set_u32 b 0 j_descriptor;
  Util.Bytesio.set_u64 b 8 (Int64.of_int sequence);
  Util.Bytesio.set_u32 b 16 count;
  Util.Bytesio.set_u64 b 24 checksum;
  Array.iteri (fun i t -> Util.Bytesio.set_u32 b (32 + (i * 4)) t) targets

let get_descriptor b =
  if Util.Bytesio.get_u32 b 0 <> j_descriptor then None
  else begin
    let sequence = Int64.to_int (Util.Bytesio.get_u64 b 8) in
    let count = Util.Bytesio.get_u32 b 16 in
    if count > desc_max_targets then None
    else
      Some
        ( sequence,
          Util.Bytesio.get_u64 b 24,
          Array.init count (fun i -> Util.Bytesio.get_u32 b (32 + (i * 4))) )
  end

let put_commit b ~sequence =
  Bytes.fill b 0 (Bytes.length b) '\000';
  Util.Bytesio.set_u32 b 0 j_commit;
  Util.Bytesio.set_u64 b 8 (Int64.of_int sequence)

let get_commit b =
  if Util.Bytesio.get_u32 b 0 <> j_commit then None
  else Some (Int64.to_int (Util.Bytesio.get_u64 b 8))

(** Same FNV-1a checksum as the xv6 log, over every word: a sparse sample
    can collide with a stale log slot left by a previous transaction (see
    Xv6fs.Layout.checksum_blocks). *)
let checksum_blocks = Util.Fnv.blocks

(** Compute a layout: carve a journal then as many full groups as fit. *)
let compute ~size ~group_size ~inodes_per_group ~journal_len =
  if size < 1024 then invalid_arg "ext4 layout: device too small";
  let journal_start = 3 in
  let first_group_block = journal_start + journal_len in
  let ngroups = (size - first_group_block) / group_size in
  if ngroups < 1 then invalid_arg "ext4 layout: no room for groups";
  {
    total_blocks = size;
    ngroups;
    group_size;
    inodes_per_group;
    journal_start;
    journal_len;
    first_group_block;
  }
