(** The three workloads. Each generates its whole op stream (op kind, file
    index, offset, sizes) from the seed once, and then drives every stack
    with the same stream; only those inputs reach the stacks. Every byte
    written is a slice of one seeded random pool, so every byte read is
    checked against what was written. *)

module Os = Kernel.Os

type instance = {
  fibers : int;
  ops : int;  (** per fiber; the window is [fibers * ops] ops *)
  prefill : Probe.ctx -> unit;  (** create the data set before the window *)
  cold : bool;
      (** remount between prefill and window: empty page cache, buffer
          cache and journal *)
  op : Probe.ctx -> int -> string * (unit -> unit);
      (** op [i] of the calling fiber: its kind and body *)
  drain : Probe.ctx -> unit;  (** after the window: close what ops left open *)
  readback : Probe.ctx -> int * int;
      (** after remount: (files checked, files whose bytes differ) *)
}

type t = {
  name : string;
  make : seed:int -> ops:int -> unit -> instance;
      (** the stream for a seed; each call of the result is a fresh
          instance (model state) for one stack *)
  base_ops : int;  (** ops per fiber of a 10 s run *)
}

(* ------------------------------------------------------------------ *)
(* Pattern data *)

let kb = 1024
let mb = 1024 * 1024
let pool_size = mb

let make_pool rng =
  Bytes.init pool_size (fun _ -> Char.unsafe_chr (Sim.Rng.int rng 256))

(* File bytes are the pool read cyclically from the file's base offset. *)
let segments ~base ~pos len f =
  let rec go off =
    if off < len then begin
      let src = (base + pos + off) mod pool_size in
      let n = min (len - off) (pool_size - src) in
      f ~src ~dst:off n;
      go (off + n)
    end
  in
  go 0

let fill pool ~base ~pos len =
  let b = Bytes.create len in
  segments ~base ~pos len (fun ~src ~dst n -> Bytes.blit pool src b dst n);
  b

(* [a.[i, i+n)] = [b.[j, j+n)], without allocating *)
let equal_sub a i b j n =
  let rec words k =
    k + 8 > n
    || Int64.equal (Bytes.get_int64_ne a (i + k)) (Bytes.get_int64_ne b (j + k))
       && words (k + 8)
  in
  let rec tail k = k >= n || (Bytes.get a (i + k) = Bytes.get b (j + k) && tail (k + 1)) in
  words 0 && tail (n land lnot 7)

let check pool ~base ~pos ~len data =
  if Bytes.length data <> len then raise (Probe.Failed "short read");
  segments ~base ~pos len (fun ~src ~dst n ->
      if not (equal_sub pool src data dst n) then raise (Probe.Failed "checksum"))

let sys = Probe.sys

(* Write [len] pattern bytes from [base] into a fresh file in [chunk]-sized
   writes (set-up only). Multi-chunk files are fsynced every 8 MB and at
   the end: ext4's data=journal mode runs out of buffers
   (Bcache.No_buffers) when one flush journals tens of MB. *)
let create_file c pool path ~base ~len ~chunk =
  let fd = sys c "open" (fun os -> Os.open_ os path Os.(creat wronly)) in
  let rec put pos =
    if pos < len then begin
      let n = min chunk (len - pos) in
      let data = fill pool ~base ~pos n in
      ignore (Probe.sys_write c "write" data (fun os -> Os.write os fd data));
      if (pos + n) mod (8 * mb) = 0 || (pos + n = len && len > chunk) then
        sys c "fsync" (fun os -> Os.fsync os fd);
      put (pos + n)
    end
  in
  put 0;
  sys c "close" (fun os -> Os.close os fd)

let read_whole c path ~len =
  let fd = sys c "open" (fun os -> Os.open_ os path Os.rdonly) in
  let data = sys c "pread" (fun os -> Os.pread os fd ~pos:0 ~len:(len + 4096)) in
  sys c "close" (fun os -> Os.close os fd);
  data

(* ------------------------------------------------------------------ *)
(* cached: 4 KB random preads of one warm 32 MB file, and stats of a warm
   1000-file tree. Everything fits in the page cache and dcache. *)

type cached_op = Read of int * int | Stat of int

let cached =
  let fibers = 16 and file_len = 32 * mb and nfiles = 1000 and ndirs = 10 in
  let path i = Printf.sprintf "/c/d%d/f%04d" (i mod ndirs) i in
  let make ~seed ~ops =
    let rng = Sim.Rng.create seed in
    let pool = make_pool (Sim.Rng.split rng) in
    let sizes = Array.init nfiles (fun _ -> 1 + Sim.Rng.int rng (8 * kb)) in
    (* [Read (pos, len)], 2-6 KB at any byte offset, or [Stat file]. Sizes
       vary around 4 KB so that read costs, and with them the percentiles,
       are continuous in the inputs. *)
    let stream =
      Array.init fibers (fun _ ->
          let r = Sim.Rng.split rng in
          Array.init ops (fun _ ->
              if Sim.Rng.int r 10 = 0 then Stat (Sim.Rng.int r nfiles)
              else
                let len = (2 * kb) + Sim.Rng.int r (4 * kb) in
                Read (Sim.Rng.int r (file_len - len), len)))
    in
    fun () ->
      let fds = Array.make fibers (-1) in
      let prefill c =
        sys c "mkdir" (fun os -> Os.mkdir os "/c");
        for d = 0 to ndirs - 1 do
          sys c "mkdir" (fun os -> Os.mkdir os (Printf.sprintf "/c/d%d" d))
        done;
        create_file c pool "/c/data" ~base:0 ~len:file_len ~chunk:mb;
        Array.iteri
          (fun i len -> create_file c pool (path i) ~base:i ~len ~chunk:len)
          sizes;
        sys c "sync" Os.sync;
        (* warm the page cache and the dcache *)
        let fd = sys c "open" (fun os -> Os.open_ os "/c/data" Os.rdonly) in
        for i = 0 to (file_len / mb) - 1 do
          let pos = i * mb in
          check pool ~base:0 ~pos ~len:mb
            (sys c "pread" (fun os -> Os.pread os fd ~pos ~len:mb))
        done;
        sys c "close" (fun os -> Os.close os fd);
        for i = 0 to nfiles - 1 do
          ignore (sys c "stat" (fun os -> Os.stat os (path i)))
        done;
        for f = 0 to fibers - 1 do
          fds.(f) <- sys c "open" (fun os -> Os.open_ os "/c/data" Os.rdonly)
        done
      in
      let op (c : Probe.ctx) i =
        match stream.(c.fiber).(i) with
        | Read (pos, len) ->
            ( "read",
              fun () ->
                check pool ~base:0 ~pos ~len
                  (sys c "pread" (fun os -> Os.pread os fds.(c.fiber) ~pos ~len)) )
        | Stat f ->
            ( "stat",
              fun () ->
                let st = sys c "stat" (fun os -> Os.stat os (path f)) in
                if st.Kernel.Vfs.st_size <> sizes.(f) then
                  raise (Probe.Failed "stat size") )
      in
      let drain c =
        Array.iter (fun fd -> sys c "close" (fun os -> Os.close os fd)) fds
      in
      { fibers; ops; prefill; cold = false; op; drain; readback = (fun _ -> (0, 0)) }
  in
  { name = "cached"; make; base_ops = 10000 }

(* ------------------------------------------------------------------ *)
(* mail: varmail-shaped transactions over 1000 16 KB files in 10
   directories. A per-file lock keeps transactions on one file serial, so
   the benchmark's model of each file's bytes is exact. *)

let mail =
  let fibers = 16 and nfiles = 1000 and ndirs = 10 and size = 16 * kb in
  let path i = Printf.sprintf "/m/d%d/m%04d" (i mod ndirs) i in
  let make ~seed ~ops =
    let rng = Sim.Rng.create seed in
    let pool = make_pool (Sim.Rng.split rng) in
    (* (kind, file): 0 recreate (30%), 1 append (30%), 2 whole-file read
       (40%). Writes are the majority so that the median falls inside the
       fsync-bound mode rather than on the edge between two modes. *)
    let stream =
      Array.init fibers (fun _ ->
          let r = Sim.Rng.split rng in
          Array.init ops (fun _ ->
              let k = Sim.Rng.int r 10 in
              ((if k < 3 then 0 else if k < 6 then 1 else 2), Sim.Rng.int r nfiles)))
    in
    fun () ->
      let model = Array.make nfiles Bytes.empty in
      let gen = Array.make nfiles 0 in
      let dirty = Array.make nfiles false in
      let locks = Array.init nfiles (fun _ -> Sim.Sync.Mutex.create ()) in
      (* the next pattern piece of file [f] *)
      let piece f len =
        gen.(f) <- gen.(f) + 1;
        fill pool ~base:((f * 7919) + (gen.(f) * 104729)) ~pos:0 len
      in
      let prefill c =
        sys c "mkdir" (fun os -> Os.mkdir os "/m");
        for d = 0 to ndirs - 1 do
          sys c "mkdir" (fun os -> Os.mkdir os (Printf.sprintf "/m/d%d" d))
        done;
        for f = 0 to nfiles - 1 do
          let data = piece f size in
          let fd = sys c "open" (fun os -> Os.open_ os (path f) Os.(creat wronly)) in
          ignore (Probe.sys_write c "write" data (fun os -> Os.write os fd data));
          sys c "close" (fun os -> Os.close os fd);
          model.(f) <- data
        done;
        sys c "sync" Os.sync
      in
      let write_fsync c f flags data =
        let fd = sys c "open" (fun os -> Os.open_ os (path f) flags) in
        ignore (Probe.sys_write c "write" data (fun os -> Os.write os fd data));
        sys c "fsync" (fun os -> Os.fsync os fd);
        sys c "close" (fun os -> Os.close os fd)
      in
      let op (c : Probe.ctx) i =
        let kind, f = stream.(c.fiber).(i) in
        let locked body () = Sim.Sync.Mutex.with_lock locks.(f) body in
        match kind with
        | 0 ->
            ( "recreate",
              locked (fun () ->
                  sys c "unlink" (fun os -> Os.unlink os (path f));
                  let data = piece f size in
                  write_fsync c f Os.(creat wronly) data;
                  model.(f) <- data;
                  dirty.(f) <- true) )
        | 1 ->
            ( "append",
              locked (fun () ->
                  let data = piece f (4 * kb) in
                  write_fsync c f Os.(appendf wronly) data;
                  model.(f) <- Bytes.cat model.(f) data;
                  dirty.(f) <- true) )
        | _ ->
            ( "read",
              locked (fun () ->
                  let data = read_whole c (path f) ~len:(Bytes.length model.(f)) in
                  if not (Bytes.equal data model.(f)) then
                    raise (Probe.Failed "checksum")) )
      in
      let readback c =
        let checked = ref 0 and bad = ref 0 in
        Array.iteri
          (fun f d ->
            if d then begin
              incr checked;
              match read_whole c (path f) ~len:(Bytes.length model.(f)) with
              | data when Bytes.equal data model.(f) -> ()
              | _ | (exception Probe.Failed _) -> incr bad
            end)
          dirty;
        (!checked, !bad)
      in
      { fibers; ops; prefill; cold = false; op; drain = ignore; readback }
  in
  { name = "mail"; make; base_ops = 800 }

(* ------------------------------------------------------------------ *)
(* stream: three readers stream preads through private files, read cold
   after a remount (each byte is read once, and no read hits a page cached
   before the window); five writers write into new files and fsync every
   2 MB. Calls average 128 KB. The mix keeps every percentile away from
   the edge between two latency modes, where it would jump between seeds:
   the median inside the page-cache copy mode (FUSE reads are slower than
   every write), the p99 inside the fsync mode, and on ext4 inside the
   journal-checkpoint stalls. The 80 MB written is 2.5 journals of ext4,
   so every seed sees the same number of checkpoints. *)

(* One call: [len] bytes at [pos] of the fiber's file [file]. *)
type piece = { file : int; pos : int; len : int; last : bool; fsync : bool }

let stream =
  let readers = 3 and fibers = 8 and fsync_every = 2 * mb in
  let make ~seed ~ops =
    let rng = Sim.Rng.create seed in
    let pool = make_pool (Sim.Rng.split rng) in
    (* per fiber: its [ops] pieces, walking files of 1-8 MB front to back *)
    let pieces =
      Array.init fibers (fun _ ->
          let r = Sim.Rng.split rng in
          let file = ref 0 and pos = ref 0 and written = ref 0 in
          let size () = mb + Sim.Rng.int r (7 * mb) in
          let target = ref (size ()) in
          Array.init ops (fun i ->
              let len = (64 * kb) + Sim.Rng.int r (128 * kb) in
              let last = !pos + len >= !target || i = ops - 1 in
              let fsync =
                (!written + len) / fsync_every > !written / fsync_every
                || i = ops - 1
              in
              let p = { file = !file; pos = !pos; len; last; fsync } in
              written := !written + len;
              if last then begin
                incr file;
                pos := 0;
                target := size ()
              end
              else pos := !pos + len;
              p))
    in
    (* per fiber: the sizes of its files *)
    let sizes =
      Array.map
        (fun ps ->
          Array.of_list
            (List.rev
               (Array.fold_left
                  (fun acc p -> if p.last then (p.pos + p.len) :: acc else acc)
                  [] ps)))
        pieces
    in
    let path f j = Printf.sprintf "/s/f%d-%03d" f j in
    let base f j = (f * 65537) + (j * 4099) in
    fun () ->
      let fds = Array.make fibers (-1) in
      let prefill c =
        sys c "mkdir" (fun os -> Os.mkdir os "/s");
        for f = 0 to readers - 1 do
          Array.iteri
            (fun j len -> create_file c pool (path f j) ~base:(base f j) ~len ~chunk:mb)
            sizes.(f)
        done;
        sys c "sync" Os.sync
      in
      let op (c : Probe.ctx) i =
        let f = c.fiber in
        let { file = j; pos; len; last; fsync } = pieces.(f).(i) in
        let reader = f < readers in
        ( (if reader then "read" else "write"),
          fun () ->
            if pos = 0 then
              fds.(f) <-
                sys c "open" (fun os ->
                    Os.open_ os (path f j) (if reader then Os.rdonly else Os.(creat wronly)));
            if reader then
              check pool ~base:(base f j) ~pos ~len
                (sys c "pread" (fun os -> Os.pread os fds.(f) ~pos ~len))
            else begin
              let data = fill pool ~base:(base f j) ~pos len in
              ignore
                (Probe.sys_write c "write" data (fun os -> Os.pwrite os fds.(f) ~pos data));
              if fsync then sys c "fsync" (fun os -> Os.fsync os fds.(f))
            end;
            if last then sys c "close" (fun os -> Os.close os fds.(f)) )
      in
      let readback c =
        let checked = ref 0 and bad = ref 0 in
        for f = readers to fibers - 1 do
          Array.iteri
            (fun j len ->
              incr checked;
              match read_whole c (path f j) ~len with
              | data -> (
                  try check pool ~base:(base f j) ~pos:0 ~len data
                  with Probe.Failed _ -> incr bad)
              | exception Probe.Failed _ -> incr bad)
            sizes.(f)
        done;
        (!checked, !bad)
      in
      { fibers; ops; prefill; cold = true; op; drain = ignore; readback }
  in
  { name = "stream"; make; base_ops = 128 }

let all = [ cached; mail; stream ]
