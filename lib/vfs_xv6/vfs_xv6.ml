(** The "C-kernel" baseline: the xv6 file system written directly against
    the kernel VFS layer, the way the paper's 1862-line C baseline was
    (§6.2).

    It shares the on-disk format with the Bento version (Xv6fs.Layout) but
    is an independent implementation with the characteristics the paper
    ascribes to the hand-written C version:

    - it registers plain VFS ops and touches kernel objects directly — no
      capability layer, no scoped buffer wrappers (buffers are released by
      explicit calls on every path, the style whose missed-cleanup bugs
      Table 1 counts);
    - writeback uses [writepage]: one page per call ([wb_batch = 1]);
    - log commits issue one synchronous device command per block — it was
      "just written for this evaluation" and lacks the batched/async
      submission BentoFS inherited from the FUSE kernel module.

    The transaction model matches the Bento version: metadata operations
    commit eagerly at end_op; data writeback joins lazy group commits
    triggered by log pressure or fsync. *)

module L = Xv6fs.Layout

type 'a res = ('a, Kernel.Errno.t) result

let ( let* ) (r : 'a res) f : 'b res = match r with Ok v -> f v | Error _ as e -> e

(* In-core inode. *)
type inode = {
  inum : int;
  ilock : Sim.Sync.Mutex.t;
  mutable valid : bool;
  mutable ftype : L.ftype;
  mutable nlink : int;
  mutable size : int;
  mutable addrs : int array;
  mutable refcount : int;
  mutable nopen : int;
}

type log_state = {
  log_lock : Sim.Sync.Mutex.t;
  log_cond : Sim.Sync.Condvar.t;
  header_block : int;
  log_start : int;
  log_capacity : int;
  mutable outstanding : int;
  mutable committing : bool;
  mutable staged_order : int list;
  staged : (int, unit) Hashtbl.t;
  mutable eager_dirty : bool;
  mutable commits : int;
}

type fs = {
  machine : Kernel.Machine.t;
  bc : Kernel.Bcache.t;
  sb : L.superblock;
  log : log_state;
  icache : (int, inode) Hashtbl.t;
  icache_lock : Sim.Sync.Mutex.t;
  alloc_lock : Sim.Sync.Mutex.t;
  rename_lock : Sim.Sync.Mutex.t;
  mutable balloc_rotor : int;
  mutable ialloc_rotor : int;
  mutable free_blocks : int;
  mutable free_inodes : int;
}

let bsize = L.block_size
let max_op_blocks = 16
let write_chunk_blocks = 8

let cpu fs ns = Kernel.Machine.cpu_work fs.machine ns
let costs fs = Kernel.Machine.cost fs.machine

(* ------------------------------------------------------------------ *)
(* Log: same protocol as the Bento version, but every device write is a
   separate synchronous command (no batching, no async submission).     *)

let log_write fs buf =
  Sim.Sync.Mutex.lock fs.log.log_lock;
  if fs.log.outstanding < 1 then begin
    Sim.Sync.Mutex.unlock fs.log.log_lock;
    invalid_arg "vfs_xv6: log_write outside transaction"
  end;
  let blk = buf.Kernel.Bcache.block in
  cpu fs (costs fs).Kernel.Cost.log_copy_per_block;
  if Hashtbl.mem fs.log.staged blk then ()
  else begin
    if Hashtbl.length fs.log.staged >= fs.log.log_capacity then begin
      Sim.Sync.Mutex.unlock fs.log.log_lock;
      failwith "vfs_xv6: log overflow"
    end;
    Kernel.Bcache.bpin fs.bc buf;
    Hashtbl.replace fs.log.staged blk ();
    fs.log.staged_order <- blk :: fs.log.staged_order
  end;
  Sim.Sync.Mutex.unlock fs.log.log_lock

(* One synchronous bwrite per block: the C version's install/log paths. *)
let do_commit fs =
  let order = List.rev fs.log.staged_order in
  let n = List.length order in
  if n > 0 then begin
    Kernel.Machine.with_layer fs.machine "log" @@ fun () ->
    fs.log.commits <- fs.log.commits + 1;
    Kernel.Machine.incr fs.machine "log_commits";
    Kernel.Machine.incr ~by:n fs.machine "log_commit_blocks";
    let home_bufs = List.map (fun blk -> Kernel.Bcache.bread fs.bc blk) order in
    (* copy to log area, one write per block *)
    let datas = ref [] in
    List.iteri
      (fun i src ->
        let dst = Kernel.Bcache.getblk fs.bc (fs.log.log_start + i) in
        cpu fs (costs fs).Kernel.Cost.log_copy_per_block;
        Bytes.blit src.Kernel.Bcache.data 0 dst.Kernel.Bcache.data 0 bsize;
        Kernel.Bcache.bwrite fs.bc dst;
        datas := Bytes.copy dst.Kernel.Bcache.data :: !datas;
        Kernel.Bcache.brelse fs.bc dst)
      home_bufs;
    let checksum = L.checksum_blocks (List.rev !datas) in
    let hdr = Kernel.Bcache.getblk fs.bc fs.log.header_block in
    L.put_log_header hdr.Kernel.Bcache.data
      { L.n; checksum; targets = Array.of_list order };
    Kernel.Bcache.bwrite fs.bc hdr;
    Kernel.Bcache.brelse fs.bc hdr;
    Kernel.Bcache.flush fs.bc;
    (* install, one write per block *)
    List.iter
      (fun b ->
        Kernel.Bcache.bwrite fs.bc b;
        Kernel.Bcache.bunpin fs.bc b;
        Kernel.Bcache.brelse fs.bc b)
      home_bufs;
    Kernel.Bcache.flush fs.bc;
    let hdr = Kernel.Bcache.getblk fs.bc fs.log.header_block in
    L.put_log_header hdr.Kernel.Bcache.data
      { L.n = 0; checksum = 0L; targets = [||] };
    Kernel.Bcache.bwrite fs.bc hdr;
    Kernel.Bcache.brelse fs.bc hdr;
    Hashtbl.reset fs.log.staged;
    fs.log.staged_order <- [];
    fs.log.eager_dirty <- false
  end

let commit_locked fs =
  fs.log.committing <- true;
  Sim.Sync.Mutex.unlock fs.log.log_lock;
  do_commit fs;
  Sim.Sync.Mutex.lock fs.log.log_lock;
  fs.log.committing <- false;
  Sim.Sync.Condvar.broadcast fs.log.log_cond

let begin_op fs =
  Sim.Sync.Mutex.lock fs.log.log_lock;
  let rec wait () =
    if fs.log.committing then begin
      Sim.Sync.Condvar.wait fs.log.log_cond fs.log.log_lock;
      wait ()
    end
    else if
      Hashtbl.length fs.log.staged + ((fs.log.outstanding + 1) * max_op_blocks)
      > fs.log.log_capacity
    then
      if fs.log.outstanding = 0 then begin
        commit_locked fs;
        wait ()
      end
      else begin
        Sim.Sync.Condvar.wait fs.log.log_cond fs.log.log_lock;
        wait ()
      end
    else fs.log.outstanding <- fs.log.outstanding + 1
  in
  wait ();
  Sim.Sync.Mutex.unlock fs.log.log_lock

let end_op ?(eager = true) fs =
  Sim.Sync.Mutex.lock fs.log.log_lock;
  fs.log.outstanding <- fs.log.outstanding - 1;
  if eager && fs.log.staged_order <> [] then fs.log.eager_dirty <- true;
  if fs.log.outstanding = 0 && fs.log.eager_dirty && fs.log.staged_order <> []
  then commit_locked fs;
  Sim.Sync.Condvar.broadcast fs.log.log_cond;
  Sim.Sync.Mutex.unlock fs.log.log_lock

let with_op ?(eager = true) fs f =
  begin_op fs;
  match f () with
  | v ->
      end_op ~eager fs;
      v
  | exception exn ->
      end_op ~eager fs;
      raise exn

let log_force fs =
  Sim.Sync.Mutex.lock fs.log.log_lock;
  let rec wait () =
    if fs.log.committing || fs.log.outstanding > 0 then begin
      Sim.Sync.Condvar.wait fs.log.log_cond fs.log.log_lock;
      wait ()
    end
  in
  wait ();
  if fs.log.staged_order <> [] then begin
    commit_locked fs;
    Sim.Sync.Mutex.unlock fs.log.log_lock
  end
  else begin
    Sim.Sync.Mutex.unlock fs.log.log_lock;
    Kernel.Bcache.flush fs.bc
  end

let log_recover fs =
  let hdr = Kernel.Bcache.bread fs.bc fs.log.header_block in
  let h = L.get_log_header hdr.Kernel.Bcache.data in
  Kernel.Bcache.brelse fs.bc hdr;
  if h.L.n > 0 then begin
    let log_bufs =
      List.init h.L.n (fun i -> Kernel.Bcache.bread fs.bc (fs.log.log_start + i))
    in
    let checksum =
      L.checksum_blocks (List.map (fun b -> b.Kernel.Bcache.data) log_bufs)
    in
    if Int64.equal checksum h.L.checksum then begin
      List.iteri
        (fun i lb ->
          let home = Kernel.Bcache.getblk fs.bc h.L.targets.(i) in
          Bytes.blit lb.Kernel.Bcache.data 0 home.Kernel.Bcache.data 0 bsize;
          Kernel.Bcache.bwrite fs.bc home;
          Kernel.Bcache.brelse fs.bc home)
        log_bufs;
      Kernel.Bcache.flush fs.bc
    end;
    List.iter (fun b -> Kernel.Bcache.brelse fs.bc b) log_bufs;
    let hdr = Kernel.Bcache.getblk fs.bc fs.log.header_block in
    L.put_log_header hdr.Kernel.Bcache.data { L.n = 0; checksum = 0L; targets = [||] };
    Kernel.Bcache.bwrite fs.bc hdr;
    Kernel.Bcache.brelse fs.bc hdr;
    Kernel.Bcache.flush fs.bc
  end

(* ------------------------------------------------------------------ *)
(* Allocators.                                                          *)

let bitmap_get data bit =
  Char.code (Bytes.get data (bit / 8)) land (1 lsl (bit mod 8)) <> 0

let bitmap_set data bit v =
  let byte = Char.code (Bytes.get data (bit / 8)) in
  let mask = 1 lsl (bit mod 8) in
  Bytes.set data (bit / 8)
    (Char.chr (if v then byte lor mask else byte land lnot mask))

let balloc fs : int res =
  Sim.Sync.Mutex.lock fs.alloc_lock;
  let total = fs.sb.L.size in
  let bits = bsize * 8 in
  let rec scan tried b =
    if tried > total then begin
      Sim.Sync.Mutex.unlock fs.alloc_lock;
      Error Kernel.Errno.ENOSPC
    end
    else begin
      let b = if b >= total then fs.sb.L.datastart else b in
      let bmb = Kernel.Bcache.bread fs.bc (L.bblock fs.sb b) in
      let base = b / bits * bits in
      cpu fs (costs fs).Kernel.Cost.block_alloc;
      let rec find bit =
        if bit >= bits || base + bit >= total then None
        else if
          base + bit >= fs.sb.L.datastart
          && not (bitmap_get bmb.Kernel.Bcache.data bit)
        then Some (base + bit)
        else find (bit + 1)
      in
      match find (b - base) with
      | Some blk ->
          bitmap_set bmb.Kernel.Bcache.data (L.bbit blk) true;
          log_write fs bmb;
          Kernel.Bcache.brelse fs.bc bmb;
          fs.balloc_rotor <- blk + 1;
          fs.free_blocks <- fs.free_blocks - 1;
          Sim.Sync.Mutex.unlock fs.alloc_lock;
          (* zero it *)
          let zb = Kernel.Bcache.getblk fs.bc blk in
          Bytes.fill zb.Kernel.Bcache.data 0 bsize '\000';
          log_write fs zb;
          Kernel.Bcache.brelse fs.bc zb;
          Ok blk
      | None ->
          Kernel.Bcache.brelse fs.bc bmb;
          scan (tried + (bits - (b - base))) (base + bits)
    end
  in
  scan 0 (max fs.balloc_rotor fs.sb.L.datastart)

let bfree fs blk =
  Sim.Sync.Mutex.lock fs.alloc_lock;
  let bmb = Kernel.Bcache.bread fs.bc (L.bblock fs.sb blk) in
  if not (bitmap_get bmb.Kernel.Bcache.data (L.bbit blk)) then begin
    Kernel.Bcache.brelse fs.bc bmb;
    Sim.Sync.Mutex.unlock fs.alloc_lock;
    failwith "vfs_xv6: bfree of free block"
  end;
  bitmap_set bmb.Kernel.Bcache.data (L.bbit blk) false;
  log_write fs bmb;
  Kernel.Bcache.brelse fs.bc bmb;
  fs.free_blocks <- fs.free_blocks + 1;
  if blk < fs.balloc_rotor then fs.balloc_rotor <- blk;
  Sim.Sync.Mutex.unlock fs.alloc_lock

(* ------------------------------------------------------------------ *)
(* Inode cache.                                                         *)

let iget fs inum =
  Sim.Sync.Mutex.lock fs.icache_lock;
  let ip =
    match Hashtbl.find_opt fs.icache inum with
    | Some ip ->
        ip.refcount <- ip.refcount + 1;
        ip
    | None ->
        let ip =
          {
            inum;
            ilock = Sim.Sync.Mutex.create ();
            valid = false;
            ftype = L.F_free;
            nlink = 0;
            size = 0;
            addrs = Array.make (L.ndirect + 2) 0;
            refcount = 1;
            nopen = 0;
          }
        in
        Hashtbl.add fs.icache inum ip;
        ip
  in
  Sim.Sync.Mutex.unlock fs.icache_lock;
  ip

let ilock fs ip =
  Sim.Sync.Mutex.lock ip.ilock;
  if not ip.valid then begin
    let b = Kernel.Bcache.bread fs.bc (L.iblock fs.sb ip.inum) in
    (match L.get_dinode b.Kernel.Bcache.data ~slot:(L.islot ip.inum) with
    | Ok d ->
        ip.ftype <- d.L.ftype;
        ip.nlink <- d.L.nlink;
        ip.size <- d.L.size;
        ip.addrs <- Array.copy d.L.addrs
    | Error msg ->
        Kernel.Bcache.brelse fs.bc b;
        failwith ("vfs_xv6: corrupt inode: " ^ msg));
    Kernel.Bcache.brelse fs.bc b;
    ip.valid <- true
  end

let iunlock ip = Sim.Sync.Mutex.unlock ip.ilock

let iupdate fs ip =
  let b = Kernel.Bcache.bread fs.bc (L.iblock fs.sb ip.inum) in
  L.put_dinode b.Kernel.Bcache.data ~slot:(L.islot ip.inum)
    { L.ftype = ip.ftype; nlink = ip.nlink; size = ip.size; addrs = ip.addrs };
  log_write fs b;
  Kernel.Bcache.brelse fs.bc b

let ialloc fs ftype : inode res =
  Sim.Sync.Mutex.lock fs.alloc_lock;
  let n = fs.sb.L.ninodes in
  let rec scan tried inum =
    if tried >= n then begin
      Sim.Sync.Mutex.unlock fs.alloc_lock;
      Error Kernel.Errno.ENOSPC
    end
    else begin
      let inum = if inum >= n then 1 else inum in
      let b = Kernel.Bcache.bread fs.bc (L.iblock fs.sb inum) in
      cpu fs (costs fs).Kernel.Cost.block_alloc;
      let free =
        match L.get_dinode b.Kernel.Bcache.data ~slot:(L.islot inum) with
        | Ok d -> d.L.ftype = L.F_free
        | Error _ -> false
      in
      if free then begin
        L.put_dinode b.Kernel.Bcache.data ~slot:(L.islot inum)
          { L.zero_dinode with L.ftype };
        log_write fs b;
        Kernel.Bcache.brelse fs.bc b;
        fs.ialloc_rotor <- inum + 1;
        fs.free_inodes <- fs.free_inodes - 1;
        Sim.Sync.Mutex.unlock fs.alloc_lock;
        let ip = iget fs inum in
        Sim.Sync.Mutex.lock ip.ilock;
        ip.ftype <- ftype;
        ip.nlink <- 0;
        ip.size <- 0;
        ip.addrs <- Array.make (L.ndirect + 2) 0;
        ip.valid <- true;
        Sim.Sync.Mutex.unlock ip.ilock;
        Ok ip
      end
      else begin
        Kernel.Bcache.brelse fs.bc b;
        scan (tried + 1) (inum + 1)
      end
    end
  in
  scan 0 (max 1 fs.ialloc_rotor)

(* ------------------------------------------------------------------ *)
(* bmap / readi / writei.                                               *)

let nind = L.nindirect

let indirect_entry fs blk idx ~alloc : int res =
  let b = Kernel.Bcache.bread fs.bc blk in
  let v = Util.Bytesio.get_u32 b.Kernel.Bcache.data (idx * 4) in
  if v <> 0 || not alloc then begin
    Kernel.Bcache.brelse fs.bc b;
    Ok v
  end
  else
    match balloc fs with
    | Error e ->
        Kernel.Bcache.brelse fs.bc b;
        Error e
    | Ok child ->
        Util.Bytesio.set_u32 b.Kernel.Bcache.data (idx * 4) child;
        log_write fs b;
        Kernel.Bcache.brelse fs.bc b;
        Ok child

let bmap fs ip bn ~alloc : int res =
  if bn < 0 || bn >= L.max_file_blocks then Error Kernel.Errno.EFBIG
  else if bn < L.ndirect then begin
    if ip.addrs.(bn) <> 0 || not alloc then Ok ip.addrs.(bn)
    else
      let* blk = balloc fs in
      ip.addrs.(bn) <- blk;
      Ok blk
  end
  else begin
    let bn = bn - L.ndirect in
    if bn < nind then begin
      let* ind =
        if ip.addrs.(L.ndirect) <> 0 then Ok ip.addrs.(L.ndirect)
        else if not alloc then Ok 0
        else
          let* blk = balloc fs in
          ip.addrs.(L.ndirect) <- blk;
          Ok blk
      in
      if ind = 0 then Ok 0 else indirect_entry fs ind bn ~alloc
    end
    else begin
      let bn = bn - nind in
      let* dind =
        if ip.addrs.(L.ndirect + 1) <> 0 then Ok ip.addrs.(L.ndirect + 1)
        else if not alloc then Ok 0
        else
          let* blk = balloc fs in
          ip.addrs.(L.ndirect + 1) <- blk;
          Ok blk
      in
      if dind = 0 then Ok 0
      else
        let* ind = indirect_entry fs dind (bn / nind) ~alloc in
        if ind = 0 then Ok 0 else indirect_entry fs ind (bn mod nind) ~alloc
    end
  end

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
        let bn = abs / bsize in
        let boff = abs mod bsize in
        let n = min (bsize - boff) (len - done_) in
        let* blk = bmap fs ip bn ~alloc:false in
        if blk = 0 then begin
          Bytes.fill out done_ n '\000';
          go (done_ + n)
        end
        else begin
          let b = Kernel.Bcache.bread fs.bc blk in
          Bytes.blit b.Kernel.Bcache.data boff out done_ n;
          Kernel.Bcache.brelse fs.bc b;
          go (done_ + n)
        end
      end
    in
    go 0
  end

(* Write inside the current transaction. *)
let writei_tx fs ip ~off data ~from ~len : unit res =
  let rec go done_ =
    if done_ >= len then Ok ()
    else begin
      let abs = off + done_ in
      let bn = abs / bsize in
      let boff = abs mod bsize in
      let n = min (bsize - boff) (len - done_) in
      let* blk = bmap fs ip bn ~alloc:true in
      let b =
        if n = bsize then Kernel.Bcache.getblk fs.bc blk
        else Kernel.Bcache.bread fs.bc blk
      in
      Bytes.blit data (from + done_) b.Kernel.Bcache.data boff n;
      log_write fs b;
      Kernel.Bcache.brelse fs.bc b;
      go (done_ + n)
    end
  in
  let* () = go 0 in
  if off + len > ip.size then ip.size <- off + len;
  iupdate fs ip;
  Ok ()

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
          with_op ~eager:false fs (fun () ->
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

(* ------------------------------------------------------------------ *)
(* Truncate and iput.                                                   *)

let free_round_blocks = 2048

(* Free mapped data blocks with file index >= keep under indirect block
   [blk] covering file indexes [base, ...); bounded by [budget]. *)
let rec free_indirect_tail fs blk ~level ~base ~keep ~budget : int =
  if blk = 0 || budget <= 0 then 0
  else begin
    let child_span = if level = 2 then nind else 1 in
    let b = Kernel.Bcache.bread fs.bc blk in
    let data = b.Kernel.Bcache.data in
    let freed = ref 0 in
    let changed = ref false in
    let idx = ref (nind - 1) in
    while !idx >= 0 && !freed < budget do
      let child_base = base + (!idx * child_span) in
      let child = Util.Bytesio.get_u32 data (!idx * 4) in
      (if child <> 0 && child_base + child_span > keep then
         if level = 1 then begin
           if child_base >= keep then begin
             bfree fs child;
             Util.Bytesio.set_u32 data (!idx * 4) 0;
             changed := true;
             incr freed
           end
         end
         else begin
           let sub =
             free_indirect_tail fs child ~level:1 ~base:child_base ~keep
               ~budget:(budget - !freed)
           in
           freed := !freed + sub;
           if !freed < budget && child_base >= keep then begin
             bfree fs child;
             Util.Bytesio.set_u32 data (!idx * 4) 0;
             changed := true
           end
         end);
      if !freed < budget then decr idx
    done;
    if !changed then log_write fs b;
    Kernel.Bcache.brelse fs.bc b;
    !freed
  end

let itrunc_round fs ip ~keep : bool =
  let budget = ref free_round_blocks in
  let dind_base = L.ndirect + nind in
  if
    !budget > 0
    && ip.addrs.(L.ndirect + 1) <> 0
    && keep < dind_base + (nind * nind)
  then begin
    let freed =
      free_indirect_tail fs ip.addrs.(L.ndirect + 1) ~level:2 ~base:dind_base
        ~keep ~budget:!budget
    in
    budget := !budget - freed;
    if !budget > 0 && keep <= dind_base then begin
      bfree fs ip.addrs.(L.ndirect + 1);
      ip.addrs.(L.ndirect + 1) <- 0
    end
  end;
  if !budget > 0 && ip.addrs.(L.ndirect) <> 0 && keep < L.ndirect + nind
  then begin
    let freed =
      free_indirect_tail fs ip.addrs.(L.ndirect) ~level:1 ~base:L.ndirect ~keep
        ~budget:!budget
    in
    budget := !budget - freed;
    if !budget > 0 && keep <= L.ndirect then begin
      bfree fs ip.addrs.(L.ndirect);
      ip.addrs.(L.ndirect) <- 0
    end
  end;
  if !budget > 0 then
    for i = L.ndirect - 1 downto max 0 keep do
      if ip.addrs.(i) <> 0 then begin
        bfree fs ip.addrs.(i);
        ip.addrs.(i) <- 0
      end
    done;
  iupdate fs ip;
  !budget > 0

let itrunc_to fs ip ~keep =
  let rec loop () =
    let finished =
      with_op fs (fun () ->
          ilock fs ip;
          let fin = itrunc_round fs ip ~keep in
          iunlock ip;
          fin)
    in
    if not finished then loop ()
  in
  loop ()

let itrunc_all fs ip =
  itrunc_to fs ip ~keep:0;
  with_op fs (fun () ->
      ilock fs ip;
      ip.size <- 0;
      iupdate fs ip;
      iunlock ip)

let iput fs ip =
  Sim.Sync.Mutex.lock fs.icache_lock;
  ip.refcount <- ip.refcount - 1;
  let free_now =
    ip.refcount = 0 && ip.valid && ip.nlink = 0 && ip.ftype <> L.F_free
  in
  if free_now then ip.refcount <- 1
  else if ip.refcount = 0 then Hashtbl.remove fs.icache ip.inum;
  Sim.Sync.Mutex.unlock fs.icache_lock;
  if free_now then begin
    itrunc_all fs ip;
    with_op fs (fun () ->
        ilock fs ip;
        ip.ftype <- L.F_free;
        ip.size <- 0;
        iupdate fs ip;
        iunlock ip);
    Sim.Sync.Mutex.lock fs.alloc_lock;
    fs.free_inodes <- fs.free_inodes + 1;
    if ip.inum < fs.ialloc_rotor then fs.ialloc_rotor <- ip.inum;
    Sim.Sync.Mutex.unlock fs.alloc_lock;
    Sim.Sync.Mutex.lock fs.icache_lock;
    ip.refcount <- ip.refcount - 1;
    if ip.refcount = 0 then Hashtbl.remove fs.icache ip.inum;
    Sim.Sync.Mutex.unlock fs.icache_lock
  end

(* ------------------------------------------------------------------ *)
(* Directories.                                                         *)

let dirent_count ip = ip.size / L.dirent_size

let dirlookup fs dp name : (int * int) option res =
  if dp.ftype <> L.F_dir then Error Kernel.Errno.ENOTDIR
  else begin
    let nblocks_ = (dp.size + bsize - 1) / bsize in
    let rec scan_block bi =
      if bi >= nblocks_ then Ok None
      else begin
        let* blk = bmap fs dp bi ~alloc:false in
        if blk = 0 then scan_block (bi + 1)
        else begin
          let b = Kernel.Bcache.bread fs.bc blk in
          let data = b.Kernel.Bcache.data in
          let slots =
            min L.dirents_per_block (dirent_count dp - (bi * L.dirents_per_block))
          in
          cpu fs
            (Int64.mul (Int64.of_int (max 1 slots)) (costs fs).Kernel.Cost.dirent_scan);
          let rec find s =
            if s >= slots then None
            else
              match L.get_dirent data ~slot:s with
              | Some (ino, n) when String.equal n name ->
                  Some (ino, (bi * L.dirents_per_block) + s)
              | _ -> find (s + 1)
          in
          let hit = find 0 in
          Kernel.Bcache.brelse fs.bc b;
          match hit with Some h -> Ok (Some h) | None -> scan_block (bi + 1)
        end
      end
    in
    scan_block 0
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
        let* blk = bmap fs dp bi ~alloc:false in
        if blk = 0 then Ok s
        else begin
          let b = Kernel.Bcache.bread fs.bc blk in
          let hi = min L.dirents_per_block (total - (bi * L.dirents_per_block)) in
          cpu fs
            (Int64.mul (Int64.of_int (max 1 hi)) (costs fs).Kernel.Cost.dirent_scan);
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
      let* blk = bmap fs ip bi ~alloc:false in
      if blk = 0 then scan ((bi + 1) * L.dirents_per_block)
      else begin
        let b = Kernel.Bcache.bread fs.bc blk in
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
(* VFS operations.                                                      *)

let kind_of_ftype = function
  | L.F_dir -> Kernel.Vfs.Dir
  | L.F_file -> Kernel.Vfs.Reg
  | L.F_symlink -> Kernel.Vfs.Symlink
  | L.F_free -> Kernel.Vfs.Reg

let stat_of ip =
  {
    Kernel.Vfs.st_ino = ip.inum;
    st_kind = kind_of_ftype ip.ftype;
    st_size = ip.size;
    st_nlink = ip.nlink;
  }

let stat_of_inum fs inum : Kernel.Vfs.stat res =
  if inum < 1 || inum >= fs.sb.L.ninodes then Error Kernel.Errno.ESTALE
  else begin
    let ip = iget fs inum in
    ilock fs ip;
    let r = if ip.ftype = L.F_free then Error Kernel.Errno.ESTALE else Ok (stat_of ip) in
    iunlock ip;
    iput fs ip;
    r
  end

let create_entry fs ~dir name ftype : Kernel.Vfs.stat res =
  if String.length name > L.max_name then Error Kernel.Errno.ENAMETOOLONG
  else
    with_op fs (fun () ->
        let dp = iget fs dir in
        ilock fs dp;
        let finish r =
          iunlock dp;
          iput fs dp;
          r
        in
        if dp.ftype <> L.F_dir then finish (Error Kernel.Errno.ENOTDIR)
        else if dp.nlink = 0 then finish (Error Kernel.Errno.ENOENT)
        else
          match dirlookup fs dp name with
          | Error _ as e -> finish e
          | Ok (Some _) -> finish (Error Kernel.Errno.EEXIST)
          | Ok None -> (
              match ialloc fs ftype with
              | Error _ as e -> finish e
              | Ok ip ->
                  ilock fs ip;
                  ip.nlink <- 1;
                  iupdate fs ip;
                  let r =
                    if ftype = L.F_dir then begin
                      let* () = dirlink fs ip ~name:"." ~ino:ip.inum in
                      let* () = dirlink fs ip ~name:".." ~ino:dp.inum in
                      ip.nlink <- 2;
                      iupdate fs ip;
                      dp.nlink <- dp.nlink + 1;
                      iupdate fs dp;
                      Ok ()
                    end
                    else Ok ()
                  in
                  let r =
                    match r with
                    | Error _ as e -> e
                    | Ok () -> dirlink fs dp ~name ~ino:ip.inum
                  in
                  let out =
                    match r with
                    | Error _ as e ->
                        ip.nlink <- 0;
                        iupdate fs ip;
                        e
                    | Ok () -> Ok (stat_of ip)
                  in
                  iunlock ip;
                  iput fs ip;
                  finish out))

let vfs_lookup fs ~dir name : Kernel.Vfs.stat res =
  let dp = iget fs dir in
  ilock fs dp;
  let r = dirlookup fs dp name in
  iunlock dp;
  iput fs dp;
  match r with
  | Error _ as e -> e
  | Ok None -> Error Kernel.Errno.ENOENT
  | Ok (Some (ino, _)) -> stat_of_inum fs ino

let vfs_unlink fs ~dir name : unit res =
  if name = "." || name = ".." then Error Kernel.Errno.EINVAL
  else begin
    let victim = ref None in
    let r =
      with_op fs (fun () ->
          let dp = iget fs dir in
          ilock fs dp;
          let finish r =
            iunlock dp;
            iput fs dp;
            r
          in
          if dp.ftype <> L.F_dir then finish (Error Kernel.Errno.ENOTDIR)
          else
            match dirlookup fs dp name with
            | Error _ as e -> finish e
            | Ok None -> finish (Error Kernel.Errno.ENOENT)
            | Ok (Some (ino, slot)) -> (
                let ip = iget fs ino in
                ilock fs ip;
                if ip.ftype = L.F_dir then begin
                  iunlock ip;
                  iput fs ip;
                  finish (Error Kernel.Errno.EISDIR)
                end
                else
                  match dirunlink fs dp ~slot with
                  | Error _ as e ->
                      iunlock ip;
                      iput fs ip;
                      finish e
                  | Ok () ->
                      ip.nlink <- ip.nlink - 1;
                      iupdate fs ip;
                      let blocks_est = (ip.size + bsize - 1) / bsize in
                      if
                        ip.nlink = 0 && ip.nopen = 0 && ip.refcount = 1
                        && blocks_est <= 64
                      then begin
                        ignore (itrunc_round fs ip ~keep:0);
                        ip.ftype <- L.F_free;
                        ip.size <- 0;
                        iupdate fs ip;
                        Sim.Sync.Mutex.lock fs.alloc_lock;
                        fs.free_inodes <- fs.free_inodes + 1;
                        if ip.inum < fs.ialloc_rotor then
                          fs.ialloc_rotor <- ip.inum;
                        Sim.Sync.Mutex.unlock fs.alloc_lock
                      end;
                      iunlock ip;
                      victim := Some ip;
                      finish (Ok ())))
    in
    (match !victim with Some ip -> iput fs ip | None -> ());
    r
  end

let vfs_rmdir fs ~dir name : unit res =
  if name = "." || name = ".." then Error Kernel.Errno.EINVAL
  else begin
    let victim = ref None in
    let r =
      with_op fs (fun () ->
          let dp = iget fs dir in
          ilock fs dp;
          let finish r =
            iunlock dp;
            iput fs dp;
            r
          in
          if dp.ftype <> L.F_dir then finish (Error Kernel.Errno.ENOTDIR)
          else
            match dirlookup fs dp name with
            | Error _ as e -> finish e
            | Ok None -> finish (Error Kernel.Errno.ENOENT)
            | Ok (Some (ino, slot)) -> (
                let ip = iget fs ino in
                ilock fs ip;
                if ip.ftype <> L.F_dir then begin
                  iunlock ip;
                  iput fs ip;
                  finish (Error Kernel.Errno.ENOTDIR)
                end
                else
                  match dir_is_empty fs ip with
                  | Error _ as e ->
                      iunlock ip;
                      iput fs ip;
                      finish e
                  | Ok false ->
                      iunlock ip;
                      iput fs ip;
                      finish (Error Kernel.Errno.ENOTEMPTY)
                  | Ok true -> (
                      match dirunlink fs dp ~slot with
                      | Error _ as e ->
                          iunlock ip;
                          iput fs ip;
                          finish e
                      | Ok () ->
                          dp.nlink <- dp.nlink - 1;
                          iupdate fs dp;
                          ip.nlink <- 0;
                          iupdate fs ip;
                          iunlock ip;
                          victim := Some ip;
                          finish (Ok ()))))
    in
    (match !victim with Some ip -> iput fs ip | None -> ());
    r
  end

let vfs_link fs ~ino ~dir name : Kernel.Vfs.stat res =
  with_op fs (fun () ->
      let ip = iget fs ino in
      ilock fs ip;
      if ip.ftype = L.F_dir then begin
        iunlock ip;
        iput fs ip;
        Error Kernel.Errno.EPERM
      end
      else begin
        ip.nlink <- ip.nlink + 1;
        iupdate fs ip;
        let a = stat_of ip in
        iunlock ip;
        let dp = iget fs dir in
        ilock fs dp;
        let r =
          if dp.ftype <> L.F_dir then Error Kernel.Errno.ENOTDIR
          else
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
            iupdate fs ip;
            iunlock ip;
            iput fs ip;
            e
      end)

let vfs_rename fs ~olddir ~oldname ~newdir ~newname : unit res =
  if oldname = "." || oldname = ".." || newname = "." || newname = ".." then
    Error Kernel.Errno.EINVAL
  else if String.length newname > L.max_name then Error Kernel.Errno.ENAMETOOLONG
  else begin
    Sim.Sync.Mutex.lock fs.rename_lock;
    let victim = ref None in
    let r =
      with_op fs (fun () ->
          let dp_old = iget fs olddir in
          let dp_new = if newdir = olddir then dp_old else iget fs newdir in
          (if dp_old == dp_new then ilock fs dp_old
           else if dp_old.inum < dp_new.inum then begin
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
          if dp_old.ftype <> L.F_dir || dp_new.ftype <> L.F_dir then
            finish (Error Kernel.Errno.ENOTDIR)
          else
            match dirlookup fs dp_old oldname with
            | Error _ as e -> finish e
            | Ok None -> finish (Error Kernel.Errno.ENOENT)
            | Ok (Some (src_ino, src_slot)) -> (
                if src_ino = dp_new.inum then finish (Error Kernel.Errno.EINVAL)
                else
                  match dirlookup fs dp_new newname with
                  | Error _ as e -> finish e
                  | Ok existing -> (
                      let src = iget fs src_ino in
                      ilock fs src;
                      let src_is_dir = src.ftype = L.F_dir in
                      let replace_r =
                        match existing with
                        | None -> Ok None
                        | Some (dst_ino, dst_slot) ->
                            if dst_ino = src_ino then Ok None
                            else begin
                              let dst = iget fs dst_ino in
                              ilock fs dst;
                              let dst_is_dir = dst.ftype = L.F_dir in
                              let ok =
                                if src_is_dir && not dst_is_dir then
                                  Error Kernel.Errno.ENOTDIR
                                else if (not src_is_dir) && dst_is_dir then
                                  Error Kernel.Errno.EISDIR
                                else if dst_is_dir then
                                  match dir_is_empty fs dst with
                                  | Error _ as e -> e
                                  | Ok false -> Error Kernel.Errno.ENOTEMPTY
                                  | Ok true -> Ok ()
                                else Ok ()
                              in
                              match ok with
                              | Error e ->
                                  iunlock dst;
                                  iput fs dst;
                                  Error e
                              | Ok () -> (
                                  match dirunlink fs dp_new ~slot:dst_slot with
                                  | Error _ as e ->
                                      iunlock dst;
                                      iput fs dst;
                                      e
                                  | Ok () ->
                                      if dst_is_dir then begin
                                        dst.nlink <- 0;
                                        dp_new.nlink <- dp_new.nlink - 1;
                                        iupdate fs dp_new
                                      end
                                      else dst.nlink <- dst.nlink - 1;
                                      iupdate fs dst;
                                      iunlock dst;
                                      Ok (Some dst))
                            end
                      in
                      match replace_r with
                      | Error e ->
                          iunlock src;
                          iput fs src;
                          finish (Error e)
                      | Ok dst_victim -> (
                          victim := dst_victim;
                          let r =
                            let* () = dirlink fs dp_new ~name:newname ~ino:src_ino in
                            let* () = dirunlink fs dp_old ~slot:src_slot in
                            if src_is_dir && dp_old.inum <> dp_new.inum then begin
                              match dirlookup fs src ".." with
                              | Error _ as e -> e
                              | Ok (Some (_, dotdot_slot)) ->
                                  let* () = dirunlink fs src ~slot:dotdot_slot in
                                  let* () = dirlink fs src ~name:".." ~ino:dp_new.inum in
                                  dp_old.nlink <- dp_old.nlink - 1;
                                  iupdate fs dp_old;
                                  dp_new.nlink <- dp_new.nlink + 1;
                                  iupdate fs dp_new;
                                  Ok ()
                              | Ok None -> Ok ()
                            end
                            else Ok ()
                          in
                          iunlock src;
                          iput fs src;
                          finish r))))
    in
    (match !victim with Some ip -> iput fs ip | None -> ());
    Sim.Sync.Mutex.unlock fs.rename_lock;
    r
  end

let vfs_readdir fs ino : Kernel.Vfs.dirent list res =
  let dp = iget fs ino in
  ilock fs dp;
  let r =
    if dp.ftype <> L.F_dir then Error Kernel.Errno.ENOTDIR
    else begin
      let total = dirent_count dp in
      let out = ref [] in
      let rec scan s =
        if s >= total then Ok (List.rev !out)
        else begin
          let bi = s / L.dirents_per_block in
          let* blk = bmap fs dp bi ~alloc:false in
          (if blk <> 0 then begin
             let b = Kernel.Bcache.bread fs.bc blk in
             let hi = min L.dirents_per_block (total - (bi * L.dirents_per_block)) in
             for s' = 0 to hi - 1 do
               match L.get_dirent b.Kernel.Bcache.data ~slot:s' with
               | Some (ino', n) ->
                   out := { Kernel.Vfs.d_name = n; d_ino = ino'; d_kind = Kernel.Vfs.Reg } :: !out
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
               match stat_of_inum fs d.Kernel.Vfs.d_ino with
               | Ok st -> { d with Kernel.Vfs.d_kind = st.Kernel.Vfs.st_kind }
               | Error _ -> d)
           entries)

let vfs_truncate fs ~ino size : unit res =
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
        with_op fs (fun () ->
            ilock fs ip;
            let r =
              if size mod bsize <> 0 then
                match bmap fs ip (size / bsize) ~alloc:false with
                | Ok blk when blk <> 0 ->
                    let b = Kernel.Bcache.bread fs.bc blk in
                    Bytes.fill b.Kernel.Bcache.data (size mod bsize)
                      (bsize - (size mod bsize)) '\000';
                    log_write fs b;
                    Kernel.Bcache.brelse fs.bc b;
                    Ok ()
                | Ok _ -> Ok ()
                | Error _ as e -> e
              else Ok ()
            in
            ip.size <- size;
            iupdate fs ip;
            iunlock ip;
            r)
      end
      else
        with_op fs (fun () ->
            ilock fs ip;
            ip.size <- size;
            iupdate fs ip;
            iunlock ip;
            Ok ())
    in
    iput fs ip;
    r
  end

(* ------------------------------------------------------------------ *)
(* mkfs / mount.                                                        *)

let default_nlog = 126

let compute_layout machine =
  let size = Device.Ssd.nblocks (Kernel.Machine.disk machine) in
  let ninodes = min 262144 (max 4096 (size / 32)) in
  L.compute ~size ~ninodes ~nlog:default_nlog

(** Format the device (identical on-disk format to the Bento version — the
    two baselines can mount each other's images, and the tests verify it). *)
let mkfs machine : unit res =
  let bc = Kernel.Bcache.create machine in
  let sb = compute_layout machine in
  let put blk f =
    let b = Kernel.Bcache.getblk bc blk in
    f b.Kernel.Bcache.data;
    Kernel.Bcache.bwrite bc b;
    Kernel.Bcache.brelse bc b
  in
  put 1 (fun data ->
      Bytes.fill data 0 bsize '\000';
      L.put_superblock data sb);
  put sb.L.logstart (fun data ->
      L.put_log_header data { L.n = 0; checksum = 0L; targets = [||] });
  let bits = bsize * 8 in
  let nbitmap = (sb.L.size + bits - 1) / bits in
  for i = 0 to nbitmap - 1 do
    put (sb.L.bmapstart + i) (fun data ->
        Bytes.fill data 0 bsize '\000';
        let base = i * bits in
        for bit = 0 to bits - 1 do
          let blk = base + bit in
          if blk < sb.L.datastart && blk < sb.L.size then bitmap_set data bit true
        done)
  done;
  let ninodeblocks = (sb.L.ninodes + L.inodes_per_block - 1) / L.inodes_per_block in
  for i = 0 to ninodeblocks - 1 do
    put (sb.L.inodestart + i) (fun data -> Bytes.fill data 0 bsize '\000')
  done;
  let root_block = sb.L.datastart in
  let b = Kernel.Bcache.bread bc (L.bblock sb root_block) in
  bitmap_set b.Kernel.Bcache.data (L.bbit root_block) true;
  Kernel.Bcache.bwrite bc b;
  Kernel.Bcache.brelse bc b;
  put root_block (fun data ->
      Bytes.fill data 0 bsize '\000';
      L.put_dirent data ~slot:0 ~ino:L.root_ino ~name:".";
      L.put_dirent data ~slot:1 ~ino:L.root_ino ~name:"..");
  let b = Kernel.Bcache.bread bc (L.iblock sb L.root_ino) in
  let addrs = Array.make (L.ndirect + 2) 0 in
  addrs.(0) <- root_block;
  L.put_dinode b.Kernel.Bcache.data ~slot:(L.islot L.root_ino)
    { L.ftype = L.F_dir; nlink = 2; size = 2 * L.dirent_size; addrs };
  Kernel.Bcache.bwrite bc b;
  Kernel.Bcache.brelse bc b;
  Kernel.Bcache.flush bc;
  Ok ()

let count_free fs =
  let bits = bsize * 8 in
  let nbitmap = (fs.sb.L.size + bits - 1) / bits in
  let free = ref 0 in
  for i = 0 to nbitmap - 1 do
    let b = Kernel.Bcache.bread fs.bc (fs.sb.L.bmapstart + i) in
    let base = i * bits in
    for bit = 0 to bits - 1 do
      let blk = base + bit in
      if blk >= fs.sb.L.datastart && blk < fs.sb.L.size then
        if not (bitmap_get b.Kernel.Bcache.data bit) then incr free
    done;
    Kernel.Bcache.brelse fs.bc b
  done;
  fs.free_blocks <- !free;
  let ifree = ref 0 in
  let ninodeblocks = (fs.sb.L.ninodes + L.inodes_per_block - 1) / L.inodes_per_block in
  for i = 0 to ninodeblocks - 1 do
    let b = Kernel.Bcache.bread fs.bc (fs.sb.L.inodestart + i) in
    for slot = 0 to L.inodes_per_block - 1 do
      let inum = (i * L.inodes_per_block) + slot in
      if inum >= 1 && inum < fs.sb.L.ninodes then
        match L.get_dinode b.Kernel.Bcache.data ~slot with
        | Ok d -> if d.L.ftype = L.F_free then incr ifree
        | Error _ -> ()
    done;
    Kernel.Bcache.brelse fs.bc b
  done;
  fs.free_inodes <- !ifree

(** Mount directly on the VFS layer; returns the VFS instance. *)
let mount ?dirty_limit ?background machine : (Kernel.Vfs.t, Kernel.Errno.t) result =
  let bc = Kernel.Bcache.create machine in
  let b = Kernel.Bcache.bread bc 1 in
  let sb_r = L.get_superblock b.Kernel.Bcache.data in
  Kernel.Bcache.brelse bc b;
  match sb_r with
  | Error _ -> Error Kernel.Errno.EINVAL
  | Ok sb ->
      let fs =
        {
          machine;
          bc;
          sb;
          log =
            {
              log_lock = Sim.Sync.Mutex.create ~name:"c-log" ();
              log_cond = Sim.Sync.Condvar.create ();
              header_block = sb.L.logstart;
              log_start = sb.L.logstart + 1;
              log_capacity = min (sb.L.nlog - 1) L.log_max_entries;
              outstanding = 0;
              committing = false;
              staged_order = [];
              staged = Hashtbl.create 64;
              eager_dirty = false;
              commits = 0;
            };
          icache = Hashtbl.create 1024;
          icache_lock = Sim.Sync.Mutex.create ();
          alloc_lock = Sim.Sync.Mutex.create ();
          rename_lock = Sim.Sync.Mutex.create ();
          balloc_rotor = sb.L.datastart;
          ialloc_rotor = 1;
          free_blocks = 0;
          free_inodes = 0;
        }
      in
      log_recover fs;
      count_free fs;
      let ops : Kernel.Vfs.fs_ops =
        Kernel.Vfs.profiled_ops machine "fs"
        {
          Kernel.Vfs.fs_name = "xv6-c";
          root_ino = L.root_ino;
          lookup = (fun ~dir name -> vfs_lookup fs ~dir name);
          getattr = (fun ino -> stat_of_inum fs ino);
          create = (fun ~dir name -> create_entry fs ~dir name L.F_file);
          mkdir = (fun ~dir name -> create_entry fs ~dir name L.F_dir);
          unlink = (fun ~dir name -> vfs_unlink fs ~dir name);
          rmdir = (fun ~dir name -> vfs_rmdir fs ~dir name);
          rename =
            (fun ~olddir ~oldname ~newdir ~newname ->
              vfs_rename fs ~olddir ~oldname ~newdir ~newname);
          link = (fun ~ino ~dir name -> vfs_link fs ~ino ~dir name);
          symlink =
            (fun ~dir name ~target ->
              if String.length target > bsize then
                Error Kernel.Errno.ENAMETOOLONG
              else
                match create_entry fs ~dir name L.F_symlink with
                | Error _ as e -> e
                | Ok st ->
                    let ip = iget fs st.Kernel.Vfs.st_ino in
                    let r =
                      with_op fs (fun () ->
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
                if ip.ftype <> L.F_symlink then Error Kernel.Errno.EINVAL
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
                ~getattr:(fun ino -> stat_of_inum fs ino));
          bmap =
            (fun ~ino ~fbn ->
              let ip = iget fs ino in
              ilock fs ip;
              let r =
                if ip.ftype = L.F_free then Error Kernel.Errno.ESTALE
                else bmap fs ip fbn ~alloc:false
              in
              iunlock ip;
              iput fs ip;
              r);
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
              (* The C baseline has no bulk read hook, so the readahead
                 window is filled with per-page serial reads — the read
                 side of its writepage-vs-writepages handicap. *)
              let ip = iget fs ino in
              ilock fs ip;
              let rec go i acc =
                if i >= count then Ok (Array.of_list (List.rev acc))
                else
                  match readi fs ip ~off:((start + i) * bsize) ~len:bsize with
                  | Error _ as e -> e
                  | Ok data ->
                      let page =
                        if Bytes.length data = bsize then data
                        else begin
                          let p = Bytes.make bsize '\000' in
                          Bytes.blit data 0 p 0 (Bytes.length data);
                          p
                        end
                      in
                      go (i + 1) (page :: acc)
              in
              let r = go 0 [] in
              iunlock ip;
              iput fs ip;
              r);
          write_pages =
            (fun ~ino ~isize pages ->
              (* wb_batch = 1: called one page at a time (writepage) *)
              match Array.length pages with
              | 0 -> Ok ()
              | _ ->
                  let index, data = pages.(0) in
                  let off = index * bsize in
                  let len = min bsize (max 0 (isize - off)) in
                  if len = 0 then Ok ()
                  else begin
                    let ip = iget fs ino in
                    let r = writei fs ip ~off (Bytes.sub data 0 len) in
                    iput fs ip;
                    match r with Ok _ -> Ok () | Error _ as e -> e
                  end);
          truncate = (fun ~ino size -> vfs_truncate fs ~ino size);
          fsync =
            (fun ~ino:_ ->
              log_force fs;
              Ok ());
          sync_fs =
            (fun () ->
              log_force fs;
              Ok ());
          iopen =
            (fun ~ino ->
              let ip = iget fs ino in
              if not ip.valid then begin
                ilock fs ip;
                iunlock ip
              end;
              if ip.ftype = L.F_free then begin
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
                Kernel.Vfs.f_blocks = fs.sb.L.nblocks;
                f_bfree = fs.free_blocks;
                f_files = fs.sb.L.ninodes;
                f_ffree = fs.free_inodes;
              });
          wb_batch = 1;
          max_file_size = L.max_file_size;
        }
      in
      Kernel.Pushdown.set_bcache_backend machine bc;
      Ok (Kernel.Vfs.mount ?dirty_limit ?background machine ops)

(** Unmount: flush everything. *)
let unmount vfs = Kernel.Vfs.unmount vfs
