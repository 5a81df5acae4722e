(** The simplified ext4, mounted with data=journal like the paper's
    comparator (§6): block groups, extent-mapped files, and the JBD2-style
    journal from [Jbd2]. A native kernel file system: registers VFS ops
    directly and uses the kernel buffer cache. *)

module L = Layout4

type 'a res = ('a, Kernel.Errno.t) result

let ( let* ) (r : 'a res) f : 'b res = match r with Ok v -> f v | Error _ as e -> e

let bsize = L.block_size

type inode4 = {
  ino : int;
  ilock : Sim.Sync.Mutex.t;
  mutable valid : bool;
  mutable kind : L.kind4;
  mutable nlink : int;
  mutable size : int;
  mutable extents : L.extent list;  (** sorted by logical *)
  mutable leaves : int array;  (** owned on-disk leaf blocks *)
  mutable refcount : int;
  mutable nopen : int;
}

type fs = {
  machine : Kernel.Machine.t;
  bc : Kernel.Bcache.t;
  sb : L.superblock;
  journal : Jbd2.t;
  icache : (int, inode4) Hashtbl.t;
  icache_lock : Sim.Sync.Mutex.t;
  alloc_lock : Sim.Sync.Mutex.t;
  rename_lock : Sim.Sync.Mutex.t;
  group_free_blocks : int array;
  group_free_inodes : int array;
  group_block_rotor : int array;  (** next bit to try per group *)
  group_inode_rotor : int array;
  mutable free_blocks : int;
  mutable free_inodes : int;
}

let cpu fs ns = Kernel.Machine.cpu_work fs.machine ns
let costs fs = Kernel.Machine.cost fs.machine

(* ------------------------------------------------------------------ *)
(* Bitmap helpers (shared little-endian bit order with the xv6 build).  *)

let bit_get data bit = Char.code (Bytes.get data (bit / 8)) land (1 lsl (bit mod 8)) <> 0

let bit_set data bit v =
  let byte = Char.code (Bytes.get data (bit / 8)) in
  let mask = 1 lsl (bit mod 8) in
  Bytes.set data (bit / 8) (Char.chr (if v then byte lor mask else byte land lnot mask))

(* ------------------------------------------------------------------ *)
(* Block allocation: first-fit contiguous runs inside a goal group,
   falling over to later groups (a light version of ext4's allocator;
   combined with allocate-on-writeback this gives the delayed-allocation
   contiguity the paper's comparator enjoys).                           *)

let group_data_bits fs g =
  let data_start = L.group_data_start fs.sb g in
  let gstart = L.group_start fs.sb g in
  let gend = min (gstart + fs.sb.L.group_size) fs.sb.L.total_blocks in
  (data_start - gstart, gend - gstart)

(* Allocate up to [want] contiguous blocks; returns an extent. Inside a
   journal handle. *)
let alloc_extent fs ~goal_group ~want : L.extent res =
  Sim.Sync.Mutex.lock fs.alloc_lock;
  let want = max 1 (min want L.max_extent_len) in
  let ngroups = fs.sb.L.ngroups in
  let rec try_group i =
    if i >= ngroups then begin
      Sim.Sync.Mutex.unlock fs.alloc_lock;
      Error Kernel.Errno.ENOSPC
    end
    else begin
      let g = (goal_group + i) mod ngroups in
      if fs.group_free_blocks.(g) = 0 then try_group (i + 1)
      else begin
        let bmb = Kernel.Bcache.bread fs.bc (L.group_block_bitmap fs.sb g) in
        let data = bmb.Kernel.Bcache.data in
        let lo, hi = group_data_bits fs g in
        cpu fs (costs fs).Kernel.Cost.block_alloc;
        (* find first free bit, then extend the run *)
        let rec find bit =
          if bit >= hi then None
          else if not (bit_get data bit) then begin
            let run = ref 1 in
            while
              !run < want && bit + !run < hi && not (bit_get data (bit + !run))
            do
              incr run
            done;
            Some (bit, !run)
          end
          else find (bit + 1)
        in
        (* rotor: resume where the last allocation in this group stopped,
           falling back to a full scan only if the tail is exhausted *)
        let start = max lo fs.group_block_rotor.(g) in
        let found =
          match find start with None when start > lo -> find lo | r -> r
        in
        match found with
        | None ->
            Kernel.Bcache.brelse fs.bc bmb;
            try_group (i + 1)
        | Some (bit, run) ->
            for j = 0 to run - 1 do
              bit_set data (bit + j) true
            done;
            fs.group_block_rotor.(g) <- bit + run;
            Jbd2.journal_write fs.journal bmb;
            Kernel.Bcache.brelse fs.bc bmb;
            fs.group_free_blocks.(g) <- fs.group_free_blocks.(g) - run;
            fs.free_blocks <- fs.free_blocks - run;
            Sim.Sync.Mutex.unlock fs.alloc_lock;
            Ok { L.e_logical = 0; e_physical = L.group_start fs.sb g + bit; e_len = run }
      end
    end
  in
  try_group 0

(* Free [len] blocks starting at [phys] (inside a handle). *)
let free_run fs ~phys ~len =
  Sim.Sync.Mutex.lock fs.alloc_lock;
  let remaining = ref len in
  let p = ref phys in
  while !remaining > 0 do
    let g = L.group_of_block fs.sb !p in
    let gstart = L.group_start fs.sb g in
    let in_group = min !remaining (gstart + fs.sb.L.group_size - !p) in
    let bmb = Kernel.Bcache.bread fs.bc (L.group_block_bitmap fs.sb g) in
    for j = 0 to in_group - 1 do
      let bit = !p + j - gstart in
      if not (bit_get bmb.Kernel.Bcache.data bit) then begin
        Kernel.Bcache.brelse fs.bc bmb;
        Sim.Sync.Mutex.unlock fs.alloc_lock;
        failwith "ext4: double free"
      end;
      bit_set bmb.Kernel.Bcache.data bit false
    done;
    Jbd2.journal_write fs.journal bmb;
    Kernel.Bcache.brelse fs.bc bmb;
    fs.group_free_blocks.(g) <- fs.group_free_blocks.(g) + in_group;
    fs.free_blocks <- fs.free_blocks + in_group;
    let first_bit = !p - gstart in
    if first_bit < fs.group_block_rotor.(g) then
      fs.group_block_rotor.(g) <- first_bit;
    p := !p + in_group;
    remaining := !remaining - in_group
  done;
  Sim.Sync.Mutex.unlock fs.alloc_lock

(* ------------------------------------------------------------------ *)
(* Inode allocation (Orlov-lite: directories spread to the freest group,
   files near their parent).                                            *)

let ialloc fs ~goal_group kind : int res =
  Sim.Sync.Mutex.lock fs.alloc_lock;
  let ngroups = fs.sb.L.ngroups in
  let goal =
    if kind = L.K_dir then begin
      (* freest group *)
      let best = ref 0 in
      Array.iteri
        (fun g free -> if free > fs.group_free_inodes.(!best) then best := g)
        fs.group_free_inodes;
      ignore (Array.length fs.group_free_inodes);
      !best
    end
    else goal_group
  in
  let rec try_group i =
    if i >= ngroups then begin
      Sim.Sync.Mutex.unlock fs.alloc_lock;
      Error Kernel.Errno.ENOSPC
    end
    else begin
      let g = (goal + i) mod ngroups in
      if fs.group_free_inodes.(g) = 0 then try_group (i + 1)
      else begin
        let bmb = Kernel.Bcache.bread fs.bc (L.group_inode_bitmap fs.sb g) in
        cpu fs (costs fs).Kernel.Cost.block_alloc;
        let ipg = fs.sb.L.inodes_per_group in
        let rec find bit =
          if bit >= ipg then None
          else if not (bit_get bmb.Kernel.Bcache.data bit) then Some bit
          else find (bit + 1)
        in
        let start = min fs.group_inode_rotor.(g) (ipg - 1) in
        let found =
          match find start with None when start > 0 -> find 0 | r -> r
        in
        match found with
        | None ->
            Kernel.Bcache.brelse fs.bc bmb;
            try_group (i + 1)
        | Some bit ->
            bit_set bmb.Kernel.Bcache.data bit true;
            fs.group_inode_rotor.(g) <- bit + 1;
            Jbd2.journal_write fs.journal bmb;
            Kernel.Bcache.brelse fs.bc bmb;
            fs.group_free_inodes.(g) <- fs.group_free_inodes.(g) - 1;
            fs.free_inodes <- fs.free_inodes - 1;
            Sim.Sync.Mutex.unlock fs.alloc_lock;
            Ok ((g * ipg) + bit + 1)
      end
    end
  in
  try_group 0

let ifree_mark fs ino =
  Sim.Sync.Mutex.lock fs.alloc_lock;
  let g = L.group_of_ino fs.sb ino in
  let bmb = Kernel.Bcache.bread fs.bc (L.group_inode_bitmap fs.sb g) in
  bit_set bmb.Kernel.Bcache.data (L.index_in_group fs.sb ino) false;
  Jbd2.journal_write fs.journal bmb;
  Kernel.Bcache.brelse fs.bc bmb;
  fs.group_free_inodes.(g) <- fs.group_free_inodes.(g) + 1;
  fs.free_inodes <- fs.free_inodes + 1;
  let bit = L.index_in_group fs.sb ino in
  if bit < fs.group_inode_rotor.(g) then fs.group_inode_rotor.(g) <- bit;
  Sim.Sync.Mutex.unlock fs.alloc_lock

(* ------------------------------------------------------------------ *)
(* In-core inodes.                                                      *)

let iget fs ino =
  Sim.Sync.Mutex.lock fs.icache_lock;
  let ip =
    match Hashtbl.find_opt fs.icache ino with
    | Some ip ->
        ip.refcount <- ip.refcount + 1;
        ip
    | None ->
        let ip =
          {
            ino;
            ilock = Sim.Sync.Mutex.create ();
            valid = false;
            kind = L.K_free;
            nlink = 0;
            size = 0;
            extents = [];
            leaves = Array.make L.leaf_ptrs 0;
            refcount = 1;
            nopen = 0;
          }
        in
        Hashtbl.add fs.icache ino ip;
        ip
  in
  Sim.Sync.Mutex.unlock fs.icache_lock;
  ip

let load_extents fs (d : L.dinode) : L.extent list * int array =
  let inline = Array.to_list (Array.sub d.L.inline 0 (min d.L.nextents L.inline_extents)) in
  let rest = ref [] in
  let remaining = ref (d.L.nextents - L.inline_extents) in
  Array.iter
    (fun leaf ->
      if leaf <> 0 && !remaining > 0 then begin
        let b = Kernel.Bcache.bread fs.bc leaf in
        let n = min (L.get_leaf_count b.Kernel.Bcache.data) !remaining in
        for i = 0 to n - 1 do
          rest := L.get_leaf_extent b.Kernel.Bcache.data i :: !rest
        done;
        remaining := !remaining - n;
        Kernel.Bcache.brelse fs.bc b
      end)
    d.L.leaves;
  (inline @ List.rev !rest, Array.copy d.L.leaves)

let ilock fs ip =
  Sim.Sync.Mutex.lock ip.ilock;
  if not ip.valid then begin
    let b = Kernel.Bcache.bread fs.bc (L.inode_block fs.sb ip.ino) in
    (match L.get_dinode b.Kernel.Bcache.data ~slot:(L.inode_slot fs.sb ip.ino) with
    | Ok d ->
        Kernel.Bcache.brelse fs.bc b;
        ip.kind <- d.L.kind;
        ip.nlink <- d.L.nlink;
        ip.size <- d.L.size;
        let exts, leaves = load_extents fs d in
        ip.extents <- exts;
        ip.leaves <- leaves
    | Error msg ->
        Kernel.Bcache.brelse fs.bc b;
        failwith ("ext4: corrupt inode: " ^ msg));
    ip.valid <- true
  end

let iunlock ip = Sim.Sync.Mutex.unlock ip.ilock

(* Persist inode + extent leaves (inside a handle, ilock held). *)
let iupdate fs ip : unit res =
  let exts = Array.of_list ip.extents in
  let n = Array.length exts in
  let inline = Array.make L.inline_extents { L.e_logical = 0; e_physical = 0; e_len = 0 } in
  for i = 0 to min n L.inline_extents - 1 do
    inline.(i) <- exts.(i)
  done;
  (* how many leaves do we need? *)
  let overflow = max 0 (n - L.inline_extents) in
  let nleaves = (overflow + L.extents_per_leaf - 1) / L.extents_per_leaf in
  if nleaves > L.leaf_ptrs then Error Kernel.Errno.EFBIG
  else begin
    (* allocate / free leaf blocks as the count changes *)
    let r = ref (Ok ()) in
    for li = 0 to L.leaf_ptrs - 1 do
      match !r with
      | Error _ -> ()
      | Ok () ->
          if li < nleaves && ip.leaves.(li) = 0 then begin
            match
              alloc_extent fs ~goal_group:(L.group_of_ino fs.sb ip.ino) ~want:1
            with
            | Ok e -> ip.leaves.(li) <- e.L.e_physical
            | Error e -> r := Error e
          end
          else if li >= nleaves && ip.leaves.(li) <> 0 then begin
            free_run fs ~phys:ip.leaves.(li) ~len:1;
            ip.leaves.(li) <- 0
          end
    done;
    let* () = !r in
    (* write leaves *)
    for li = 0 to nleaves - 1 do
      let b = Kernel.Bcache.getblk fs.bc ip.leaves.(li) in
      let base = L.inline_extents + (li * L.extents_per_leaf) in
      let count = min L.extents_per_leaf (n - base) in
      Bytes.fill b.Kernel.Bcache.data 0 bsize '\000';
      L.put_leaf_count b.Kernel.Bcache.data count;
      for i = 0 to count - 1 do
        L.put_leaf_extent b.Kernel.Bcache.data i exts.(base + i)
      done;
      Jbd2.journal_write fs.journal b;
      Kernel.Bcache.brelse fs.bc b
    done;
    (* write the inode itself *)
    let b = Kernel.Bcache.bread fs.bc (L.inode_block fs.sb ip.ino) in
    L.put_dinode b.Kernel.Bcache.data ~slot:(L.inode_slot fs.sb ip.ino)
      {
        L.kind = ip.kind;
        nlink = ip.nlink;
        size = ip.size;
        nextents = n;
        inline;
        leaves = ip.leaves;
      };
    Jbd2.journal_write fs.journal b;
    Kernel.Bcache.brelse fs.bc b;
    Ok ()
  end

(* Map logical block -> physical (0 if hole). *)
let lookup_block ip logical =
  let rec go = function
    | [] -> 0
    | e :: rest ->
        if logical >= e.L.e_logical && logical < e.L.e_logical + e.L.e_len then
          e.L.e_physical + (logical - e.L.e_logical)
        else go rest
  in
  go ip.extents

(* Append an extent mapping, merging with the last when contiguous. *)
let add_mapping ip (e : L.extent) =
  let rec go = function
    | [] -> [ e ]
    | [ last ] ->
        if
          last.L.e_logical + last.L.e_len = e.L.e_logical
          && last.L.e_physical + last.L.e_len = e.L.e_physical
        then [ { last with L.e_len = last.L.e_len + e.L.e_len } ]
        else [ last; e ]
    | x :: rest -> x :: go rest
  in
  ip.extents <- go ip.extents

(* Allocate mappings for logical blocks [from, from+count) (holes only),
   inside a handle. *)
let rec alloc_range fs ip ~from ~count : unit res =
  if count <= 0 then Ok ()
  else if lookup_block ip from <> 0 then alloc_range fs ip ~from:(from + 1) ~count:(count - 1)
  else begin
    (* length of the hole run *)
    let run = ref 1 in
    while !run < count && lookup_block ip (from + !run) = 0 do
      incr run
    done;
    let* e = alloc_extent fs ~goal_group:(L.group_of_ino fs.sb ip.ino) ~want:!run in
    add_mapping ip { e with L.e_logical = from };
    alloc_range fs ip ~from:(from + e.L.e_len) ~count:(count - e.L.e_len)
  end

(* ------------------------------------------------------------------ *)
(* File content.                                                        *)

let readi fs ip ~off ~len : Bytes.t res =
  let len = max 0 (min len (ip.size - off)) in
  if off < 0 then Error Kernel.Errno.EINVAL
  else if len = 0 then Ok Bytes.empty
  else begin
    let out = Bytes.create len in
    let rec go done_ =
      if done_ >= len then Ok out
      else begin
        let abs = off + done_ in
        let logical = abs / bsize in
        let boff = abs mod bsize in
        let n = min (bsize - boff) (len - done_) in
        let phys = lookup_block ip logical in
        if phys = 0 then Bytes.fill out done_ n '\000'
        else begin
          let b = Kernel.Bcache.bread fs.bc phys in
          Bytes.blit b.Kernel.Bcache.data boff out done_ n;
          Kernel.Bcache.brelse fs.bc b
        end;
        go (done_ + n)
      end
    in
    go 0
  end

(* Write inside the current handle; bounded by the handle reservation. *)
let writei_tx fs ip ~off data ~from ~len : unit res =
  let first = off / bsize in
  let last = (off + len - 1) / bsize in
  let* () = alloc_range fs ip ~from:first ~count:(last - first + 1) in
  let rec go done_ =
    if done_ >= len then Ok ()
    else begin
      let abs = off + done_ in
      let logical = abs / bsize in
      let boff = abs mod bsize in
      let n = min (bsize - boff) (len - done_) in
      let phys = lookup_block ip logical in
      assert (phys <> 0);
      (* a partial write may only skip the read when the whole block lies
         beyond EOF — a block straddling EOF still holds live data *)
      let block_start = abs - boff in
      let fresh = block_start >= ip.size in
      let b =
        if n = bsize || fresh then Kernel.Bcache.getblk fs.bc phys
        else Kernel.Bcache.bread fs.bc phys
      in
      if n <> bsize && fresh then
        Bytes.fill b.Kernel.Bcache.data 0 bsize '\000';
      Bytes.blit data (from + done_) b.Kernel.Bcache.data boff n;
      Jbd2.journal_write fs.journal b;
      Kernel.Bcache.brelse fs.bc b;
      go (done_ + n)
    end
  in
  let* () = go 0 in
  if off + len > ip.size then ip.size <- off + len;
  iupdate fs ip

let write_chunk_blocks = 32

let writei fs ip ~off data : int res =
  let len = Bytes.length data in
  if off < 0 then Error Kernel.Errno.EINVAL
  else if off + len > L.max_file_size then Error Kernel.Errno.EFBIG
  else if len = 0 then Ok 0
  else begin
    let chunk_bytes = write_chunk_blocks * bsize in
    let rec go done_ =
      if done_ >= len then Ok len
      else begin
        let abs = off + done_ in
        let room = chunk_bytes - (abs mod bsize) in
        let n = min room (len - done_) in
        let r =
          Jbd2.with_handle fs.journal (fun () ->
              ilock fs ip;
              let r = writei_tx fs ip ~off:abs data ~from:done_ ~len:n in
              iunlock ip;
              r)
        in
        match r with Ok () -> go (done_ + n) | Error _ as e -> e
      end
    in
    go 0
  end

(* Shrink the mapping to the first [keep] logical blocks, freeing the rest
   in bounded rounds (each its own handle). *)
let itrunc_to fs ip ~keep =
  let rec loop () =
    let more =
      Jbd2.with_handle fs.journal (fun () ->
          ilock fs ip;
          (* extents needing work: those reaching past [keep] *)
          let needs_work e = e.L.e_logical + e.L.e_len > keep in
          let rec split budget kept = function
            | [] -> (List.rev kept, false)
            | e :: rest when not (needs_work e) -> split budget (e :: kept) rest
            | e :: rest when budget = 0 ->
                (List.rev_append kept (e :: rest), true)
            | e :: rest ->
                if e.L.e_logical >= keep then begin
                  free_run fs ~phys:e.L.e_physical ~len:e.L.e_len;
                  split (budget - 1) kept rest
                end
                else begin
                  let keep_len = keep - e.L.e_logical in
                  free_run fs
                    ~phys:(e.L.e_physical + keep_len)
                    ~len:(e.L.e_len - keep_len);
                  split (budget - 1) ({ e with L.e_len = keep_len } :: kept) rest
                end
          in
          let exts, more = split 16 [] ip.extents in
          ip.extents <- exts;
          (match iupdate fs ip with Ok () -> () | Error _ -> ());
          iunlock ip;
          more)
    in
    if more then loop ()
  in
  loop ()

let itrunc_all fs ip =
  itrunc_to fs ip ~keep:0;
  Jbd2.with_handle fs.journal (fun () ->
      ilock fs ip;
      ip.size <- 0;
      (match iupdate fs ip with Ok () -> () | Error _ -> ());
      iunlock ip)

let iput fs ip =
  Sim.Sync.Mutex.lock fs.icache_lock;
  ip.refcount <- ip.refcount - 1;
  let free_now = ip.refcount = 0 && ip.valid && ip.nlink = 0 in
  if free_now then ip.refcount <- 1
  else if ip.refcount = 0 then Hashtbl.remove fs.icache ip.ino;
  Sim.Sync.Mutex.unlock fs.icache_lock;
  if free_now then begin
    itrunc_all fs ip;
    Jbd2.with_handle fs.journal (fun () ->
        ilock fs ip;
        ip.kind <- L.K_free;
        ip.size <- 0;
        (match iupdate fs ip with Ok () -> () | Error _ -> ());
        iunlock ip;
        ifree_mark fs ip.ino);
    Sim.Sync.Mutex.lock fs.icache_lock;
    ip.refcount <- ip.refcount - 1;
    if ip.refcount = 0 then Hashtbl.remove fs.icache ip.ino;
    Sim.Sync.Mutex.unlock fs.icache_lock
  end

(* ------------------------------------------------------------------ *)
(* Directories (fixed 64-byte dirents, linear scan).                    *)

let dirent_count ip = ip.size / L.dirent_size

let dirlookup fs dp name : (int * int) option res =
  if dp.kind <> L.K_dir then Error Kernel.Errno.ENOTDIR
  else begin
    let nblocks_ = (dp.size + bsize - 1) / bsize in
    let rec scan bi =
      if bi >= nblocks_ then Ok None
      else begin
        let phys = lookup_block dp bi in
        if phys = 0 then scan (bi + 1)
        else begin
          let b = Kernel.Bcache.bread fs.bc phys in
          let slots = min L.dirents_per_block (dirent_count dp - (bi * L.dirents_per_block)) in
          cpu fs (Int64.mul (Int64.of_int (max 1 slots)) (costs fs).Kernel.Cost.dirent_scan);
          let rec find s =
            if s >= slots then None
            else
              match L.get_dirent b.Kernel.Bcache.data ~slot:s with
              | Some (ino, n) when String.equal n name -> Some (ino, (bi * L.dirents_per_block) + s)
              | _ -> find (s + 1)
          in
          let hit = find 0 in
          Kernel.Bcache.brelse fs.bc b;
          match hit with Some h -> Ok (Some h) | None -> scan (bi + 1)
        end
      end
    in
    scan 0
  end

let dirlink fs dp ~name ~ino : unit res =
  if String.length name > L.max_name then Error Kernel.Errno.ENAMETOOLONG
  else if String.length name = 0 then Error Kernel.Errno.EINVAL
  else begin
    let total = dirent_count dp in
    let rec find_free s =
      if s >= total then Ok total
      else begin
        let bi = s / L.dirents_per_block in
        let phys = lookup_block dp bi in
        if phys = 0 then Ok s
        else begin
          let b = Kernel.Bcache.bread fs.bc phys in
          let hi = min L.dirents_per_block (total - (bi * L.dirents_per_block)) in
          cpu fs (Int64.mul (Int64.of_int (max 1 hi)) (costs fs).Kernel.Cost.dirent_scan);
          let rec f s' =
            if s' >= hi then None
            else if L.get_dirent b.Kernel.Bcache.data ~slot:s' = None then
              Some ((bi * L.dirents_per_block) + s')
            else f (s' + 1)
          in
          let hit = f (s mod L.dirents_per_block) in
          Kernel.Bcache.brelse fs.bc b;
          match hit with
          | Some slot -> Ok slot
          | None -> find_free ((bi + 1) * L.dirents_per_block)
        end
      end
    in
    let* slot = find_free 0 in
    let ent = Bytes.make L.dirent_size '\000' in
    L.put_dirent ent ~slot:0 ~ino ~name;
    writei_tx fs dp ~off:(slot * L.dirent_size) ~from:0 ~len:L.dirent_size ent
  end

let dirunlink fs dp ~slot : unit res =
  let zero = Bytes.make L.dirent_size '\000' in
  writei_tx fs dp ~off:(slot * L.dirent_size) ~from:0 ~len:L.dirent_size zero

let dir_is_empty fs ip : bool res =
  let total = dirent_count ip in
  let rec scan s =
    if s >= total then Ok true
    else begin
      let bi = s / L.dirents_per_block in
      let phys = lookup_block ip bi in
      if phys = 0 then scan ((bi + 1) * L.dirents_per_block)
      else begin
        let b = Kernel.Bcache.bread fs.bc phys in
        let hi = min L.dirents_per_block (total - (bi * L.dirents_per_block)) in
        let rec f s' =
          if s' >= hi then None
          else
            match L.get_dirent b.Kernel.Bcache.data ~slot:s' with
            | Some (_, n) when n <> "." && n <> ".." -> Some n
            | _ -> f (s' + 1)
        in
        let occ = f (s mod L.dirents_per_block) in
        Kernel.Bcache.brelse fs.bc b;
        match occ with Some _ -> Ok false | None -> scan ((bi + 1) * L.dirents_per_block)
      end
    end
  in
  scan 0

(* ------------------------------------------------------------------ *)
(* Stat helpers and entry creation (same call structure as the xv6
   builds, so the benchmarks compare journaling strategies, not call
   graphs).                                                             *)

let kind_to_vfs = function
  | L.K_dir -> Kernel.Vfs.Dir
  | L.K_file -> Kernel.Vfs.Reg
  | L.K_symlink -> Kernel.Vfs.Symlink
  | L.K_free -> Kernel.Vfs.Reg

let stat_of ip =
  {
    Kernel.Vfs.st_ino = ip.ino;
    st_kind = kind_to_vfs ip.kind;
    st_size = ip.size;
    st_nlink = ip.nlink;
  }

let stat_of_ino fs ino : Kernel.Vfs.stat res =
  if ino < 1 || ino > L.total_inodes fs.sb then Error Kernel.Errno.ESTALE
  else begin
    let ip = iget fs ino in
    ilock fs ip;
    let r = if ip.kind = L.K_free then Error Kernel.Errno.ESTALE else Ok (stat_of ip) in
    iunlock ip;
    iput fs ip;
    r
  end

let create_entry fs ~dir name kind : Kernel.Vfs.stat res =
  if String.length name > L.max_name then Error Kernel.Errno.ENAMETOOLONG
  else
    Jbd2.with_handle fs.journal (fun () ->
        let dp = iget fs dir in
        ilock fs dp;
        let finish r =
          iunlock dp;
          iput fs dp;
          r
        in
        if dp.kind <> L.K_dir then finish (Error Kernel.Errno.ENOTDIR)
        else if dp.nlink = 0 then finish (Error Kernel.Errno.ENOENT)
        else
          match dirlookup fs dp name with
          | Error _ as e -> finish e
          | Ok (Some _) -> finish (Error Kernel.Errno.EEXIST)
          | Ok None -> (
              match ialloc fs ~goal_group:(L.group_of_ino fs.sb dir) kind with
              | Error _ as e -> finish e
              | Ok ino ->
                  let ip = iget fs ino in
                  Sim.Sync.Mutex.lock ip.ilock;
                  ip.kind <- kind;
                  ip.nlink <- 1;
                  ip.size <- 0;
                  ip.extents <- [];
                  ip.leaves <- Array.make L.leaf_ptrs 0;
                  ip.valid <- true;
                  let r =
                    let* () = Result.map (fun _ -> ()) (iupdate fs ip) in
                    if kind = L.K_dir then begin
                      let* () = dirlink fs ip ~name:"." ~ino in
                      let* () = dirlink fs ip ~name:".." ~ino:dp.ino in
                      ip.nlink <- 2;
                      let* () = iupdate fs ip in
                      dp.nlink <- dp.nlink + 1;
                      iupdate fs dp
                    end
                    else Ok ()
                  in
                  let r =
                    match r with Error _ as e -> e | Ok () -> dirlink fs dp ~name ~ino
                  in
                  let out =
                    match r with
                    | Error _ as e ->
                        ip.nlink <- 0;
                        (match iupdate fs ip with _ -> ());
                        e
                    | Ok () -> Ok (stat_of ip)
                  in
                  iunlock ip;
                  iput fs ip;
                  finish out))

(* ------------------------------------------------------------------ *)
(* mkfs / mount.                                                        *)

let default_group_size = 32768
let default_inodes_per_group = 8192
let default_journal_len = 8192 (* 32 MB *)

let compute_layout machine =
  let size = Device.Ssd.nblocks (Kernel.Machine.disk machine) in
  let group_size = min default_group_size (max 2048 (size / 2)) in
  let journal_len = min default_journal_len (max 256 (size / 8)) in
  L.compute ~size ~group_size ~inodes_per_group:default_inodes_per_group
    ~journal_len

let mkfs machine : unit res =
  let bc = Kernel.Bcache.create machine in
  let sb = compute_layout machine in
  let put blk f =
    let b = Kernel.Bcache.getblk bc blk in
    Bytes.fill b.Kernel.Bcache.data 0 bsize '\000';
    f b.Kernel.Bcache.data;
    Kernel.Bcache.bwrite bc b;
    Kernel.Bcache.brelse bc b
  in
  put 1 (fun d -> L.put_superblock d sb);
  put sb.L.journal_start (fun d -> L.put_jsb d ~sequence:1 ~tail:0);
  (* group metadata *)
  for g = 0 to sb.L.ngroups - 1 do
    let meta_end = L.group_data_start sb g in
    put (L.group_block_bitmap sb g) (fun d ->
        (* mark the group's own metadata blocks used *)
        let gstart = L.group_start sb g in
        for blk = gstart to meta_end - 1 do
          bit_set d (blk - gstart) true
        done;
        (* mark bits beyond the device used *)
        let gend = gstart + sb.L.group_size in
        if gend > sb.L.total_blocks then
          for blk = sb.L.total_blocks to gend - 1 do
            bit_set d (blk - gstart) true
          done);
    put (L.group_inode_bitmap sb g) (fun _ -> ());
    for i = 0 to L.inode_table_blocks sb - 1 do
      put (L.group_inode_table sb g + i) (fun _ -> ())
    done
  done;
  (* root directory: ino 1 in group 0 *)
  let root_block =
    (* first data block of group 0 *)
    L.group_data_start sb 0
  in
  let b = Kernel.Bcache.bread bc (L.group_block_bitmap sb 0) in
  bit_set b.Kernel.Bcache.data (root_block - L.group_start sb 0) true;
  Kernel.Bcache.bwrite bc b;
  Kernel.Bcache.brelse bc b;
  let b = Kernel.Bcache.bread bc (L.group_inode_bitmap sb 0) in
  bit_set b.Kernel.Bcache.data 0 true;
  Kernel.Bcache.bwrite bc b;
  Kernel.Bcache.brelse bc b;
  put root_block (fun d ->
      L.put_dirent d ~slot:0 ~ino:L.root_ino ~name:".";
      L.put_dirent d ~slot:1 ~ino:L.root_ino ~name:"..");
  let b = Kernel.Bcache.bread bc (L.inode_block sb L.root_ino) in
  let inline = Array.make L.inline_extents { L.e_logical = 0; e_physical = 0; e_len = 0 } in
  inline.(0) <- { L.e_logical = 0; e_physical = root_block; e_len = 1 };
  L.put_dinode b.Kernel.Bcache.data ~slot:(L.inode_slot sb L.root_ino)
    {
      L.kind = L.K_dir;
      nlink = 2;
      size = 2 * L.dirent_size;
      nextents = 1;
      inline;
      leaves = Array.make L.leaf_ptrs 0;
    };
  Kernel.Bcache.bwrite bc b;
  Kernel.Bcache.brelse bc b;
  Kernel.Bcache.flush bc;
  Ok ()

let count_free fs =
  for g = 0 to fs.sb.L.ngroups - 1 do
    let b = Kernel.Bcache.bread fs.bc (L.group_block_bitmap fs.sb g) in
    let lo, hi = group_data_bits fs g in
    let free = ref 0 in
    for bit = lo to hi - 1 do
      if not (bit_get b.Kernel.Bcache.data bit) then incr free
    done;
    Kernel.Bcache.brelse fs.bc b;
    fs.group_free_blocks.(g) <- !free;
    let b = Kernel.Bcache.bread fs.bc (L.group_inode_bitmap fs.sb g) in
    let ifree = ref 0 in
    for bit = 0 to fs.sb.L.inodes_per_group - 1 do
      if not (bit_get b.Kernel.Bcache.data bit) then incr ifree
    done;
    Kernel.Bcache.brelse fs.bc b;
    fs.group_free_inodes.(g) <- !ifree
  done;
  fs.free_blocks <- Array.fold_left ( + ) 0 fs.group_free_blocks;
  fs.free_inodes <- Array.fold_left ( + ) 0 fs.group_free_inodes

let vfs_readdir fs ino : Kernel.Vfs.dirent list res =
  let dp = iget fs ino in
  ilock fs dp;
  let r =
    if dp.kind <> L.K_dir then Error Kernel.Errno.ENOTDIR
    else begin
      let total = dirent_count dp in
      let out = ref [] in
      let rec scan s =
        if s >= total then Ok (List.rev !out)
        else begin
          let bi = s / L.dirents_per_block in
          let phys = lookup_block dp bi in
          (if phys <> 0 then begin
             let b = Kernel.Bcache.bread fs.bc phys in
             let hi = min L.dirents_per_block (total - (bi * L.dirents_per_block)) in
             for s' = 0 to hi - 1 do
               match L.get_dirent b.Kernel.Bcache.data ~slot:s' with
               | Some (ino', n) ->
                   out :=
                     { Kernel.Vfs.d_name = n; d_ino = ino'; d_kind = Kernel.Vfs.Reg }
                     :: !out
               | None -> ()
             done;
             Kernel.Bcache.brelse fs.bc b
           end);
          scan ((bi + 1) * L.dirents_per_block)
        end
      in
      scan 0
    end
  in
  iunlock dp;
  iput fs dp;
  match r with
  | Error _ as e -> e
  | Ok entries ->
      Ok
        (List.map
           (fun d ->
             if d.Kernel.Vfs.d_name = "." || d.Kernel.Vfs.d_name = ".." then
               { d with Kernel.Vfs.d_kind = Kernel.Vfs.Dir }
             else
               match stat_of_ino fs d.Kernel.Vfs.d_ino with
               | Ok st -> { d with Kernel.Vfs.d_kind = st.Kernel.Vfs.st_kind }
               | Error _ -> d)
           entries)

type handle = { fs : fs }

let mount ?dirty_limit ?background ?commit_interval machine :
    (Kernel.Vfs.t * handle, Kernel.Errno.t) result =
  let bc = Kernel.Bcache.create ~capacity:16384 machine in
  let b = Kernel.Bcache.bread bc 1 in
  let sb_r = L.get_superblock b.Kernel.Bcache.data in
  Kernel.Bcache.brelse bc b;
  match sb_r with
  | Error _ -> Error Kernel.Errno.EINVAL
  | Ok sb ->
      let journal =
        Jbd2.create ?commit_interval machine bc ~jstart:sb.L.journal_start
          ~jlen:sb.L.journal_len
      in
      let fs =
        {
          machine;
          bc;
          sb;
          journal;
          icache = Hashtbl.create 1024;
          icache_lock = Sim.Sync.Mutex.create ();
          alloc_lock = Sim.Sync.Mutex.create ();
          rename_lock = Sim.Sync.Mutex.create ();
          group_free_blocks = Array.make sb.L.ngroups 0;
          group_free_inodes = Array.make sb.L.ngroups 0;
          group_block_rotor = Array.make sb.L.ngroups 0;
          group_inode_rotor = Array.make sb.L.ngroups 0;
          free_blocks = 0;
          free_inodes = 0;
        }
      in
      Jbd2.recover journal;
      count_free fs;
      (match background with
      | Some false -> ()
      | _ -> Jbd2.start_kjournald journal);
      let unlink_like ~isdir ~dir name : unit res =
        if name = "." || name = ".." then Error Kernel.Errno.EINVAL
        else begin
          let victim = ref None in
          let r =
            Jbd2.with_handle fs.journal (fun () ->
                let dp = iget fs dir in
                ilock fs dp;
                let finish r =
                  iunlock dp;
                  iput fs dp;
                  r
                in
                if dp.kind <> L.K_dir then finish (Error Kernel.Errno.ENOTDIR)
                else
                  match dirlookup fs dp name with
                  | Error _ as e -> finish e
                  | Ok None -> finish (Error Kernel.Errno.ENOENT)
                  | Ok (Some (ino, slot)) -> (
                      let ip = iget fs ino in
                      ilock fs ip;
                      let bad =
                        if isdir then
                          if ip.kind <> L.K_dir then Some Kernel.Errno.ENOTDIR
                          else None
                        else if ip.kind = L.K_dir then Some Kernel.Errno.EISDIR
                        else None
                      in
                      match bad with
                      | Some e ->
                          iunlock ip;
                          iput fs ip;
                          finish (Error e)
                      | None -> (
                          let* _empty_ok =
                            if isdir then
                              match dir_is_empty fs ip with
                              | Error _ as e ->
                                  iunlock ip;
                                  iput fs ip;
                                  ignore (finish (Ok ()));
                                  e
                              | Ok false ->
                                  iunlock ip;
                                  iput fs ip;
                                  ignore (finish (Ok ()));
                                  Error Kernel.Errno.ENOTEMPTY
                              | Ok true -> Ok true
                            else Ok true
                          in
                          match dirunlink fs dp ~slot with
                          | Error _ as e ->
                              iunlock ip;
                              iput fs ip;
                              finish e
                          | Ok () ->
                              if isdir then begin
                                dp.nlink <- dp.nlink - 1;
                                (match iupdate fs dp with _ -> ());
                                ip.nlink <- 0
                              end
                              else ip.nlink <- ip.nlink - 1;
                              (match iupdate fs ip with _ -> ());
                              iunlock ip;
                              victim := Some ip;
                              finish (Ok ()))))
          in
          (match !victim with Some ip -> iput fs ip | None -> ());
          r
        end
      in
      let ops : Kernel.Vfs.fs_ops =
        Kernel.Vfs.profiled_ops machine "fs"
        {
          Kernel.Vfs.fs_name = "ext4";
          root_ino = L.root_ino;
          lookup =
            (fun ~dir name ->
              let dp = iget fs dir in
              ilock fs dp;
              let r = dirlookup fs dp name in
              iunlock dp;
              iput fs dp;
              match r with
              | Error _ as e -> e
              | Ok None -> Error Kernel.Errno.ENOENT
              | Ok (Some (ino, _)) -> stat_of_ino fs ino);
          getattr = (fun ino -> stat_of_ino fs ino);
          create = (fun ~dir name -> create_entry fs ~dir name L.K_file);
          mkdir = (fun ~dir name -> create_entry fs ~dir name L.K_dir);
          unlink = (fun ~dir name -> unlink_like ~isdir:false ~dir name);
          rmdir = (fun ~dir name -> unlink_like ~isdir:true ~dir name);
          rename =
            (fun ~olddir ~oldname ~newdir ~newname ->
              (* rename: link under the new name, unlink the old; target
                 replaced if present. Serialised like vfs_rename. *)
              Sim.Sync.Mutex.lock fs.rename_lock;
              let r =
                Jbd2.with_handle fs.journal (fun () ->
                    let dp_old = iget fs olddir in
                    let dp_new = if newdir = olddir then dp_old else iget fs newdir in
                    (if dp_old == dp_new then ilock fs dp_old
                     else if dp_old.ino < dp_new.ino then begin
                       ilock fs dp_old;
                       ilock fs dp_new
                     end
                     else begin
                       ilock fs dp_new;
                       ilock fs dp_old
                     end);
                    let finish r =
                      (if dp_old == dp_new then iunlock dp_old
                       else begin
                         iunlock dp_old;
                         iunlock dp_new
                       end);
                      iput fs dp_old;
                      if dp_new != dp_old then iput fs dp_new;
                      r
                    in
                    match dirlookup fs dp_old oldname with
                    | Error _ as e -> finish e
                    | Ok None -> finish (Error Kernel.Errno.ENOENT)
                    | Ok (Some (src_ino, src_slot)) -> (
                        match dirlookup fs dp_new newname with
                        | Error _ as e -> finish e
                        | Ok existing -> (
                            let drop =
                              match existing with
                              | Some (dst_ino, dst_slot) when dst_ino <> src_ino -> (
                                  let dst = iget fs dst_ino in
                                  ilock fs dst;
                                  match dirunlink fs dp_new ~slot:dst_slot with
                                  | Error _ as e ->
                                      iunlock dst;
                                      iput fs dst;
                                      Error e
                                  | Ok () ->
                                      (if dst.kind = L.K_dir then begin
                                         dst.nlink <- 0;
                                         dp_new.nlink <- dp_new.nlink - 1;
                                         match iupdate fs dp_new with _ -> ()
                                       end
                                       else dst.nlink <- dst.nlink - 1);
                                      (match iupdate fs dst with _ -> ());
                                      iunlock dst;
                                      Ok (Some dst))
                              | _ -> Ok None
                            in
                            match drop with
                            | Error e -> finish e
                            | Ok victim -> (
                                let r =
                                  let* () = dirlink fs dp_new ~name:newname ~ino:src_ino in
                                  dirunlink fs dp_old ~slot:src_slot
                                in
                                match r with
                                | Error _ as e -> finish e
                                | Ok () -> (
                                    (* moving a directory across parents:
                                       rewrite its ".." and fix both
                                       parents' link counts (divergence vs
                                       xv6 found by the differential
                                       checker) *)
                                    let fixup =
                                      let src = iget fs src_ino in
                                      ilock fs src;
                                      let r =
                                        if
                                          src.kind = L.K_dir
                                          && dp_old.ino <> dp_new.ino
                                        then
                                          match dirlookup fs src ".." with
                                          | Error _ as e -> e
                                          | Ok None -> Ok ()
                                          | Ok (Some (_, dd_slot)) ->
                                              let* () =
                                                dirunlink fs src ~slot:dd_slot
                                              in
                                              let* () =
                                                dirlink fs src ~name:".."
                                                  ~ino:dp_new.ino
                                              in
                                              dp_old.nlink <- dp_old.nlink - 1;
                                              let* () = iupdate fs dp_old in
                                              dp_new.nlink <- dp_new.nlink + 1;
                                              iupdate fs dp_new
                                        else Ok ()
                                      in
                                      iunlock src;
                                      iput fs src;
                                      r
                                    in
                                    match fixup with
                                    | Error _ as e -> finish e
                                    | Ok () ->
                                        let out = finish (Ok ()) in
                                        (match victim with
                                        | Some ip -> iput fs ip
                                        | None -> ());
                                        out)))))
              in
              Sim.Sync.Mutex.unlock fs.rename_lock;
              r);
          link =
            (fun ~ino ~dir name ->
              Jbd2.with_handle fs.journal (fun () ->
                  let ip = iget fs ino in
                  ilock fs ip;
                  if ip.kind = L.K_dir then begin
                    iunlock ip;
                    iput fs ip;
                    Error Kernel.Errno.EPERM
                  end
                  else begin
                    ip.nlink <- ip.nlink + 1;
                    (match iupdate fs ip with _ -> ());
                    let a = stat_of ip in
                    iunlock ip;
                    let dp = iget fs dir in
                    ilock fs dp;
                    let r =
                      match dirlookup fs dp name with
                      | Error _ as e -> e
                      | Ok (Some _) -> Error Kernel.Errno.EEXIST
                      | Ok None -> dirlink fs dp ~name ~ino
                    in
                    iunlock dp;
                    iput fs dp;
                    match r with
                    | Ok () ->
                        iput fs ip;
                        Ok a
                    | Error _ as e ->
                        ilock fs ip;
                        ip.nlink <- ip.nlink - 1;
                        (match iupdate fs ip with _ -> ());
                        iunlock ip;
                        iput fs ip;
                        e
                  end));
          symlink =
            (fun ~dir name ~target ->
              if String.length target > bsize then
                Error Kernel.Errno.ENAMETOOLONG
              else
                match create_entry fs ~dir name L.K_symlink with
                | Error _ as e -> e
                | Ok st ->
                    let ip = iget fs st.Kernel.Vfs.st_ino in
                    let r =
                      Jbd2.with_handle fs.journal (fun () ->
                          ilock fs ip;
                          let r =
                            writei_tx fs ip ~off:0
                              (Bytes.of_string target)
                              ~from:0
                              ~len:(String.length target)
                          in
                          iunlock ip;
                          r)
                    in
                    iput fs ip;
                    (match r with
                    | Ok () ->
                        Ok { st with Kernel.Vfs.st_size = String.length target }
                    | Error _ as e -> e));
          readlink =
            (fun ~ino ->
              let ip = iget fs ino in
              ilock fs ip;
              let r =
                if ip.kind <> L.K_symlink then Error Kernel.Errno.EINVAL
                else
                  match readi fs ip ~off:0 ~len:ip.size with
                  | Ok b -> Ok (Bytes.to_string b)
                  | Error _ as e -> e
              in
              iunlock ip;
              iput fs ip;
              r);
          readdir = (fun ino -> vfs_readdir fs ino);
          readdir_filter =
            (fun ino ~prog ->
              Kernel.Pushdown.filter_dir
                (Kernel.Pushdown.registry machine)
                ~name:prog
                ~readdir:(fun () -> vfs_readdir fs ino)
                ~getattr:(fun ino -> stat_of_ino fs ino));
          bmap =
            (fun ~ino ~fbn ->
              if fbn < 0 then Error Kernel.Errno.EINVAL
              else begin
                let ip = iget fs ino in
                ilock fs ip;
                let r =
                  if ip.kind = L.K_free then Error Kernel.Errno.ESTALE
                  else Ok (lookup_block ip fbn)
                in
                iunlock ip;
                iput fs ip;
                r
              end);
          readpage =
            (fun ~ino ~index ->
              let ip = iget fs ino in
              ilock fs ip;
              let r = readi fs ip ~off:(index * bsize) ~len:bsize in
              iunlock ip;
              iput fs ip;
              match r with
              | Error _ as e -> e
              | Ok data ->
                  if Bytes.length data = bsize then Ok data
                  else begin
                    let page = Bytes.make bsize '\000' in
                    Bytes.blit data 0 page 0 (Bytes.length data);
                    Ok page
                  end);
          readahead =
            (fun ~ino ~start ~count ->
              (* One readi over the whole window; blocks still come
                 through the cache one bread at a time. *)
              let ip = iget fs ino in
              ilock fs ip;
              let r = readi fs ip ~off:(start * bsize) ~len:(count * bsize) in
              iunlock ip;
              iput fs ip;
              match r with
              | Error _ as e -> e
              | Ok data ->
                  Ok
                    (Array.init count (fun i ->
                         let page = Bytes.make bsize '\000' in
                         let off = i * bsize in
                         let n = min bsize (max 0 (Bytes.length data - off)) in
                         if n > 0 then Bytes.blit data off page 0 n;
                         page)));
          write_pages =
            (fun ~ino ~isize pages ->
              match Array.length pages with
              | 0 -> Ok ()
              | n ->
                  let first_index = fst pages.(0) in
                  let buf = Bytes.create (n * bsize) in
                  Array.iteri (fun i (_, d) -> Bytes.blit d 0 buf (i * bsize) bsize) pages;
                  let off = first_index * bsize in
                  let len = min (Bytes.length buf) (max 0 (isize - off)) in
                  if len = 0 then Ok ()
                  else begin
                    let ip = iget fs ino in
                    let r = writei fs ip ~off (Bytes.sub buf 0 len) in
                    iput fs ip;
                    match r with Ok _ -> Ok () | Error _ as e -> e
                  end);
          truncate =
            (fun ~ino size ->
              if size < 0 then Error Kernel.Errno.EINVAL
              else if size > L.max_file_size then Error Kernel.Errno.EFBIG
              else begin
                let ip = iget fs ino in
                ilock fs ip;
                let old = ip.size in
                iunlock ip;
                let r =
                  if size = 0 then begin
                    itrunc_all fs ip;
                    Ok ()
                  end
                  else if size < old then begin
                    let keep = (size + bsize - 1) / bsize in
                    itrunc_to fs ip ~keep;
                    Jbd2.with_handle fs.journal (fun () ->
                        ilock fs ip;
                        (* zero the retained slack of the tail block *)
                        (if size mod bsize <> 0 then
                           let phys = lookup_block ip (size / bsize) in
                           if phys <> 0 then begin
                             let b = Kernel.Bcache.bread fs.bc phys in
                             Bytes.fill b.Kernel.Bcache.data (size mod bsize)
                               (bsize - (size mod bsize)) '\000';
                             Jbd2.journal_write fs.journal b;
                             Kernel.Bcache.brelse fs.bc b
                           end);
                        ip.size <- size;
                        let r = iupdate fs ip in
                        iunlock ip;
                        r)
                  end
                  else
                    Jbd2.with_handle fs.journal (fun () ->
                        ilock fs ip;
                        ip.size <- size;
                        let r = iupdate fs ip in
                        iunlock ip;
                        r)
                in
                iput fs ip;
                r
              end);
          fsync =
            (fun ~ino:_ ->
              Jbd2.force_commit fs.journal;
              Ok ());
          sync_fs =
            (fun () ->
              Jbd2.force_commit fs.journal;
              Ok ());
          iopen =
            (fun ~ino ->
              let ip = iget fs ino in
              if not ip.valid then begin
                ilock fs ip;
                iunlock ip
              end;
              if ip.kind = L.K_free then begin
                iput fs ip;
                Error Kernel.Errno.ESTALE
              end
              else begin
                ip.nopen <- ip.nopen + 1;
                Ok ()
              end);
          irelease =
            (fun ~ino ->
              match Hashtbl.find_opt fs.icache ino with
              | None -> ()
              | Some ip ->
                  if ip.nopen > 0 then begin
                    ip.nopen <- ip.nopen - 1;
                    iput fs ip
                  end);
          statfs =
            (fun () ->
              {
                Kernel.Vfs.f_blocks =
                  fs.sb.L.ngroups
                  * (fs.sb.L.group_size - (L.group_data_start fs.sb 0 - L.group_start fs.sb 0));
                f_bfree = fs.free_blocks;
                f_files = L.total_inodes fs.sb;
                f_ffree = fs.free_inodes;
              });
          wb_batch = 256;
          max_file_size = L.max_file_size;
        }
      in
      Kernel.Pushdown.set_bcache_backend machine bc;
      let vfs = Kernel.Vfs.mount ?dirty_limit ?background machine ops in
      Ok (vfs, { fs })

let unmount vfs (h : handle) =
  Kernel.Vfs.unmount vfs;
  Jbd2.shutdown h.fs.journal

let journal_stats (h : handle) =
  (h.fs.journal.Jbd2.commits, h.fs.journal.Jbd2.checkpoints)
