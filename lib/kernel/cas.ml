(* Content-addressable store for sealed read-only volumes.

   Blocks are keyed by an FNV-1a hash of their bytes and stored once in a
   reserved region at the tail of the device (the file-system's KSERVICES
   view is capped so it never allocates there). A sealed *manifest* names
   a tree — directories plus files described by per-page hash arrays — and
   *instantiating* a manifest binds freshly created (sparse) inodes to its
   files. Page faults on bound inodes then alias a refcounted shared-page
   table through {!Vfs.cas_ops}: N tenants' identical files share the same
   cached [Bytes.t], and a warm open+read needs no device I/O at all.

   On-device layout of the region ([base], [base+blocks)):

     [sb0][sb1][ data blocks, append-only --->   ][catalog A][catalog B]

   The two superblock slots ping-pong by generation parity and point at
   the live catalog half (a marshalled blob holding the hash index, the
   manifests, the inode bindings and the allocation watermark). A commit
   writes new data blocks and the inactive catalog half, flushes, then
   writes the next-generation superblock and flushes again — live state is
   never overwritten, so a crash at any point leaves one valid generation:
   either the old state (no manifest / binding still present) or the new
   one (all referenced blocks already durable). *)

type mfile = {
  mf_path : string;  (** slash-separated path relative to the tree root *)
  mf_size : int;
  mf_hashes : int64 array;  (** one content hash per page *)
}

type manifest = {
  m_id : int;
  m_name : string;
  m_dirs : string array;  (** relative dir paths, parents before children *)
  m_files : mfile array;
}

(* the live state a commit makes durable, as marshalled to the catalog *)
type catalog = {
  c_index : (int64 * int) array;  (** content hash -> absolute device block *)
  c_manifests : manifest array;
  c_bindings : (int * (int * int)) array;  (** ino -> (manifest id, file idx) *)
  c_watermark : int;
  c_next_mid : int;
}

(* resident shared page: one Bytes.t aliased by [sp_refs] vnode pages *)
type sp = { sp_data : Bytes.t; mutable sp_refs : int }

type backend = {
  b_block_size : int;
  b_read : int -> Bytes.t;
  b_read_scatter : int list -> (int * Bytes.t) list;
  b_write : (int * Bytes.t) list -> unit;  (** volatile until [b_flush] *)
  b_flush : unit -> unit;
}

type t = {
  machine : Machine.t;
  backend : backend;
  base : int;
  blocks : int;
  data_base : int;
  data_end : int;  (** exclusive; first catalog block *)
  cat_half : int;  (** blocks per catalog half *)
  mutable watermark : int;  (** next free data block (absolute) *)
  mutable gen : int;
  mutable active_half : int;  (** 0 = catalog A live, 1 = catalog B *)
  index : (int64, int) Hashtbl.t;
  manifests : (int, manifest) Hashtbl.t;
  bindings : (int, int * int) Hashtbl.t;
  shared : (int64, sp) Hashtbl.t;
  mutable next_mid : int;
  c_hits : Sim.Stats.Counter.t;
  c_fills : Sim.Stats.Counter.t;
  c_shared_pages : Sim.Stats.Counter.t;  (** gauge: resident shared pages *)
  c_dedup_saved : Sim.Stats.Counter.t;
  c_commits : Sim.Stats.Counter.t;
}

let magic = "BENTOCAS"

(* superblock codec: magic, then int64 LE fields, fnv checksum over the
   preceding 48 bytes *)

let encode_sb t ~cat_blocks ~cat_bytes =
  let b = Bytes.make t.backend.b_block_size '\000' in
  Bytes.blit_string magic 0 b 0 8;
  Bytes.set_int64_le b 8 (Int64.of_int t.gen);
  Bytes.set_int64_le b 16 (Int64.of_int t.watermark);
  Bytes.set_int64_le b 24 (Int64.of_int t.active_half);
  Bytes.set_int64_le b 32 (Int64.of_int cat_blocks);
  Bytes.set_int64_le b 40 (Int64.of_int cat_bytes);
  Bytes.set_int64_le b 48 (Util.Fnv.bytes (Bytes.sub b 0 48));
  b

type sb = {
  sb_gen : int;
  sb_watermark : int;
  sb_half : int;
  sb_cat_blocks : int;
  sb_cat_bytes : int;
}

let decode_sb bs (b : Bytes.t) : sb option =
  if Bytes.length b < bs then None
  else if not (String.equal (Bytes.sub_string b 0 8) magic) then None
  else if
    not
      (Int64.equal (Bytes.get_int64_le b 48)
         (Util.Fnv.bytes (Bytes.sub b 0 48)))
  then None
  else
    Some
      {
        sb_gen = Int64.to_int (Bytes.get_int64_le b 8);
        sb_watermark = Int64.to_int (Bytes.get_int64_le b 16);
        sb_half = Int64.to_int (Bytes.get_int64_le b 24);
        sb_cat_blocks = Int64.to_int (Bytes.get_int64_le b 32);
        sb_cat_bytes = Int64.to_int (Bytes.get_int64_le b 40);
      }

let write_chunked t pairs =
  let rec go = function
    | [] -> ()
    | pairs ->
        let rec take n acc = function
          | rest when n = 0 -> (List.rev acc, rest)
          | [] -> (List.rev acc, [])
          | p :: rest -> take (n - 1) (p :: acc) rest
        in
        let chunk, rest = take 256 [] pairs in
        t.backend.b_write chunk;
        go rest
  in
  go pairs

let cat_base t half = t.data_end + (half * t.cat_half)

(** Make the in-memory state durable: inactive catalog half + next-gen
    superblock, each behind a flush barrier. *)
let commit t =
  let cat =
    {
      c_index = Hashtbl.fold (fun h b acc -> (h, b) :: acc) t.index [] |> Array.of_list;
      c_manifests =
        Hashtbl.fold (fun _ m acc -> m :: acc) t.manifests [] |> Array.of_list;
      c_bindings =
        Hashtbl.fold (fun i b acc -> (i, b) :: acc) t.bindings [] |> Array.of_list;
      c_watermark = t.watermark;
      c_next_mid = t.next_mid;
    }
  in
  let blob = Marshal.to_bytes cat [] in
  let len = Bytes.length blob in
  let bs = t.backend.b_block_size in
  let nblk = (len + bs - 1) / bs in
  if nblk > t.cat_half then failwith "cas: catalog overflows its half";
  let half = 1 - t.active_half in
  let base = cat_base t half in
  let pairs =
    List.init nblk (fun i ->
        let b = Bytes.make bs '\000' in
        Bytes.blit blob (i * bs) b 0 (min bs (len - (i * bs)));
        (base + i, b))
  in
  write_chunked t pairs;
  t.backend.b_flush ();
  t.gen <- t.gen + 1;
  t.active_half <- half;
  let sb = encode_sb t ~cat_blocks:nblk ~cat_bytes:len in
  t.backend.b_write [ (t.base + (t.gen land 1), sb) ];
  t.backend.b_flush ();
  Sim.Stats.Counter.incr t.c_commits

let load_catalog t (sb : sb) =
  let bs = t.backend.b_block_size in
  let base = cat_base t sb.sb_half in
  let pairs =
    t.backend.b_read_scatter (List.init sb.sb_cat_blocks (fun i -> base + i))
  in
  let blob = Bytes.create (sb.sb_cat_blocks * bs) in
  List.iter (fun (blk, data) -> Bytes.blit data 0 blob ((blk - base) * bs) bs) pairs;
  let cat : catalog = Marshal.from_bytes blob 0 in
  Array.iter (fun (h, b) -> Hashtbl.replace t.index h b) cat.c_index;
  Array.iter (fun m -> Hashtbl.replace t.manifests m.m_id m) cat.c_manifests;
  Array.iter (fun (i, b) -> Hashtbl.replace t.bindings i b) cat.c_bindings;
  t.watermark <- cat.c_watermark;
  t.gen <- sb.sb_gen;
  t.active_half <- sb.sb_half;
  t.next_mid <- cat.c_next_mid

let attach machine backend ~base ~blocks =
  if blocks < 16 then invalid_arg "Cas.attach: region too small";
  let cat_area = max 4 (blocks / 8) in
  let cat_half = cat_area / 2 in
  let t =
    {
      machine;
      backend;
      base;
      blocks;
      data_base = base + 2;
      data_end = base + blocks - (2 * cat_half);
      cat_half;
      watermark = base + 2;
      gen = 0;
      active_half = 1 (* first commit lands in half 0 *);
      index = Hashtbl.create 4096;
      manifests = Hashtbl.create 16;
      bindings = Hashtbl.create 4096;
      shared = Hashtbl.create 4096;
      next_mid = 0;
      c_hits = Machine.counter machine "cas_hits";
      c_fills = Machine.counter machine "cas_fills";
      c_shared_pages = Machine.counter machine "cas_shared_pages";
      c_dedup_saved = Machine.counter machine "dedup_blocks_saved";
      c_commits = Machine.counter machine "cas_commits";
    }
  in
  let bs = backend.b_block_size in
  let sb0 = decode_sb bs (backend.b_read base) in
  let sb1 = decode_sb bs (backend.b_read (base + 1)) in
  let best =
    match (sb0, sb1) with
    | Some a, Some b -> Some (if a.sb_gen >= b.sb_gen then a else b)
    | (Some _ as s), None | None, (Some _ as s) -> s
    | None, None -> None
  in
  (match best with
  | Some sb -> load_catalog t sb
  | None -> commit t (* format: generation 1, empty catalog *));
  t

(* ------------------------------------------------------------------ *)
(* Sealing                                                            *)

let store_page t new_blocks (page : Bytes.t) : int64 =
  let h = Util.Fnv.bytes page in
  (match Hashtbl.find_opt t.index h with
  | Some _ -> Sim.Stats.Counter.incr t.c_dedup_saved
  | None ->
      if t.watermark >= t.data_end then failwith "cas: data region full";
      let blk = t.watermark in
      t.watermark <- blk + 1;
      Hashtbl.replace t.index h blk;
      new_blocks := (blk, page) :: !new_blocks);
  h

let seal_files t ~name ~dirs ~files =
  let bs = t.backend.b_block_size in
  let new_blocks = ref [] in
  let mfiles =
    List.map
      (fun (path, data) ->
        let size = Bytes.length data in
        let npages = (size + bs - 1) / bs in
        let hashes =
          Array.init npages (fun i ->
              let page = Bytes.make bs '\000' in
              let off = i * bs in
              Bytes.blit data off page 0 (min bs (size - off));
              store_page t new_blocks page)
        in
        { mf_path = path; mf_size = size; mf_hashes = hashes })
      files
  in
  let mid = t.next_mid in
  t.next_mid <- mid + 1;
  let m =
    {
      m_id = mid;
      m_name = name;
      m_dirs = Array.of_list (List.sort compare dirs);
      m_files = Array.of_list mfiles;
    }
  in
  Hashtbl.replace t.manifests mid m;
  write_chunked t (List.rev !new_blocks);
  commit t;
  mid

let find_manifest t name =
  Hashtbl.fold
    (fun mid m acc -> if String.equal m.m_name name then Some mid else acc)
    t.manifests None

let manifest_dirs t mid = (Hashtbl.find t.manifests mid).m_dirs

let manifest_files t mid =
  Array.map (fun f -> (f.mf_path, f.mf_size)) (Hashtbl.find t.manifests mid).m_files

(* ------------------------------------------------------------------ *)
(* Instantiation                                                      *)

let instantiate ?(commit_bindings = true) t os ~mid ~root =
  let m =
    match Hashtbl.find_opt t.manifests mid with
    | Some m -> m
    | None -> invalid_arg "Cas.instantiate: unknown manifest"
  in
  let ( / ) a b = if String.equal a "/" then a ^ b else a ^ "/" ^ b in
  if not (Os.exists os root) then Errno.ok_exn (Os.mkdir os root);
  Array.iter (fun d -> Errno.ok_exn (Os.mkdir os (root / d))) m.m_dirs;
  Array.iteri
    (fun fidx f ->
      let path = root / f.mf_path in
      let fd = Errno.ok_exn (Os.open_ os path Os.(creat wronly)) in
      (* truncate-up only reserves sparse stubs in the file system: the
         content stays in the CAS region, served through the binding *)
      ignore (Errno.ok_exn (Os.ftruncate os fd f.mf_size));
      let st = Errno.ok_exn (Os.fstat os fd) in
      Errno.ok_exn (Os.close os fd);
      Hashtbl.replace t.bindings st.Vfs.st_ino (mid, fidx))
    m.m_files;
  if commit_bindings then commit t

(* ------------------------------------------------------------------ *)
(* Page-cache hooks                                                   *)

let acquire t h =
  match Hashtbl.find_opt t.shared h with
  | Some sp ->
      sp.sp_refs <- sp.sp_refs + 1;
      Sim.Stats.Counter.incr t.c_hits;
      sp.sp_data
  | None -> (
      let blk =
        match Hashtbl.find_opt t.index h with
        | Some b -> b
        | None -> failwith "cas: bound hash missing from index"
      in
      let data = t.backend.b_read blk in
      (* the read blocked: another fiber may have filled the entry *)
      match Hashtbl.find_opt t.shared h with
      | Some sp ->
          sp.sp_refs <- sp.sp_refs + 1;
          Sim.Stats.Counter.incr t.c_hits;
          sp.sp_data
      | None ->
          let sp = { sp_data = data; sp_refs = 1 } in
          Hashtbl.replace t.shared h sp;
          Sim.Stats.Counter.incr t.c_fills;
          Sim.Stats.Counter.incr t.c_shared_pages;
          sp.sp_data)

let release t h =
  match Hashtbl.find_opt t.shared h with
  | None -> failwith "cas: release of a non-resident hash"
  | Some sp ->
      sp.sp_refs <- sp.sp_refs - 1;
      if sp.sp_refs = 0 then begin
        Hashtbl.remove t.shared h;
        Sim.Stats.Counter.incr ~by:(-1) t.c_shared_pages
      end

let unbind_durable t ino =
  if Hashtbl.mem t.bindings ino then begin
    Hashtbl.remove t.bindings ino;
    commit t
  end

let binding_of t ino = Hashtbl.find_opt t.bindings ino
let resident_pages t = Hashtbl.length t.shared

let used_blocks t =
  let live_cat =
    let bs = t.backend.b_block_size in
    match decode_sb bs (t.backend.b_read (t.base + (t.gen land 1))) with
    | Some sb -> sb.sb_cat_blocks
    | None -> 0
  in
  2 + (t.watermark - t.data_base) + live_cat

let vfs_hooks t : Vfs.cas_ops =
  {
    Vfs.cas_lookup =
      (fun ino ->
        match Hashtbl.find_opt t.bindings ino with
        | None -> None
        | Some (mid, fidx) ->
            Some (Hashtbl.find t.manifests mid).m_files.(fidx).mf_hashes);
    cas_acquire = acquire t;
    cas_release = release t;
    cas_refs =
      (fun h ->
        match Hashtbl.find_opt t.shared h with Some sp -> sp.sp_refs | None -> 0);
    cas_cow = (fun ino -> unbind_durable t ino);
    cas_unbind = (fun ino -> unbind_durable t ino);
    cas_debug_refs =
      (fun () -> Hashtbl.fold (fun h sp acc -> (h, sp.sp_refs) :: acc) t.shared []);
  }

(* ------------------------------------------------------------------ *)
(* Crash oracle                                                       *)

let verify_manifest t mid =
  match Hashtbl.find_opt t.manifests mid with
  | None -> false
  | Some m ->
      Array.for_all
        (fun f ->
          Array.for_all
            (fun h ->
              match Hashtbl.find_opt t.index h with
              | None -> false
              | Some blk ->
                  blk >= t.data_base && blk < t.watermark
                  && Int64.equal (Util.Fnv.bytes (t.backend.b_read blk)) h)
            f.mf_hashes)
        m.m_files

(* ------------------------------------------------------------------ *)
(* Per-machine slot: workloads reach the store through the machine the
   bench harness hands them                                            *)

let key : t Machine.key = Machine.new_key ()
let register machine t = Machine.set_slot machine key (Some t)
let unregister machine = Machine.set_slot machine key None
let of_machine machine = Machine.slot machine key
