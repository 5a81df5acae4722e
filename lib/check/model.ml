(** POSIX oracle: a pure in-memory reference model of the file-operations
    API, mirroring the semantics of {!Kernel.Os} (path resolution, symlink
    following, errno choices) exactly.

    The model is persistent: applying an operation returns a new state and
    shares structure with the old one, so the crash checker can keep the
    state after every metadata operation and ask, for a recovered tree,
    "which prefix of the metadata history is this?".

    Durability is modelled by the checker on top (see {!Checker}): all
    four stacks journal the whole file system through a single ordered
    log, so a legal post-crash namespace is some prefix of the metadata
    history no older than the last completed durability barrier, and legal
    post-crash file contents are, per page, the value at some write no
    older than the last fsync covering that file. *)

module SM = Map.Make (String)
module IM = Map.Make (Int)

type op =
  | Create of string
  | Write of { path : string; pos : int; len : int }
  | Read of string
  | Mkdir of string
  | Unlink of string
  | Rmdir of string
  | Rename of string * string
  | Link of string * string  (** [Link (existing, fresh)] *)
  | Symlink of { target : string; link : string }
  | Readlink of string
  | Stat of string
  | Readdir of string
  | Fsync of string
  | Sync

(* Namespace-changing op slots. Failed ops of these kinds still occupy a
   slot in the metadata history (as identity transitions), which keeps the
   op-index accounting trivial. *)
let is_metadata = function
  | Create _ | Mkdir _ | Unlink _ | Rmdir _ | Rename _ | Link _ | Symlink _
    ->
      true
  | Write _ | Read _ | Readlink _ | Stat _ | Readdir _ | Fsync _ | Sync ->
      false

let pp_op ppf op =
  let p = Format.fprintf in
  match op with
  | Create s -> p ppf "create %s" s
  | Write { path; pos; len } -> p ppf "write %s pos=%d len=%d" path pos len
  | Read s -> p ppf "read %s" s
  | Mkdir s -> p ppf "mkdir %s" s
  | Unlink s -> p ppf "unlink %s" s
  | Rmdir s -> p ppf "rmdir %s" s
  | Rename (a, b) -> p ppf "rename %s -> %s" a b
  | Link (a, b) -> p ppf "link %s -> %s" a b
  | Symlink { target; link } -> p ppf "symlink %s -> %s" link target
  | Readlink s -> p ppf "readlink %s" s
  | Stat s -> p ppf "stat %s" s
  | Readdir s -> p ppf "readdir %s" s
  | Fsync s -> p ppf "fsync %s" s
  | Sync -> p ppf "sync"

let op_to_string op = Format.asprintf "%a" pp_op op

type kind = KFile | KDir | KSymlink

let kind_to_string = function
  | KFile -> "file"
  | KDir -> "dir"
  | KSymlink -> "symlink"

(** Observable result of an operation, normalized so every stack can
    be compared against it. File contents are digests; readdir is a sorted
    name list; stat omits st_ino (implementation-defined) and sizes of
    non-regular files (dirent-block vs target-length conventions differ
    across stacks). *)
type outcome =
  | Ok_unit
  | Ok_data of string
  | Ok_stat of { kind : kind; size : int option; nlink : int }
  | Ok_names of string list
  | Err of Kernel.Errno.t

let outcome_to_string = function
  | Ok_unit -> "ok"
  | Ok_data d -> Printf.sprintf "ok data=%s" d
  | Ok_stat { kind; size; nlink } ->
      Printf.sprintf "ok stat kind=%s size=%s nlink=%d" (kind_to_string kind)
        (match size with None -> "-" | Some s -> string_of_int s)
        nlink
  | Ok_names l -> Printf.sprintf "ok names=[%s]" (String.concat "," l)
  | Err e -> Printf.sprintf "err %s" (Kernel.Errno.to_string e)

let outcome_equal (a : outcome) (b : outcome) = a = b

(* ------------------------------------------------------------------ *)
(* Namespace state                                                     *)
(* ------------------------------------------------------------------ *)

type node =
  | NDir of int SM.t  (** name -> node id; no "." / ".." entries *)
  | NFile  (** contents live in the trace builder, keyed by node id *)
  | NSymlink of string

type state = {
  nodes : node IM.t;  (** node id -> node; id 0 is the root *)
  next_id : int;
}

let root_id = 0

let empty =
  { nodes = IM.add root_id (NDir SM.empty) IM.empty; next_id = 1 }

let node_of st id = IM.find id st.nodes

(* ------------------------------------------------------------------ *)
(* Path resolution — mirrors Kernel.Os exactly:                        *)
(*   - absolute paths only, "" and "." components dropped;             *)
(*   - symlinks followed up to depth 8, then ELOOP;                    *)
(*   - walking through a non-dir is ENOTDIR;                           *)
(*   - resolve_parent of "/" is EINVAL.                                *)
(* The generator never emits ".." (Os treats it as a literal dirent    *)
(* lookup, which the model does not track).                            *)
(* ------------------------------------------------------------------ *)

let max_symlink_depth = 8

let split_path path =
  if String.length path = 0 || path.[0] <> '/' then None
  else
    Some
      (String.split_on_char '/' path
      |> List.filter (fun c -> c <> "" && c <> "."))

let rec resolve_from st ~follow_last ~depth id comps :
    (int, Kernel.Errno.t) result =
  match comps with
  | [] -> Ok id
  | name :: rest -> (
      match node_of st id with
      | NDir entries -> (
          match SM.find_opt name entries with
          | None -> Error Kernel.Errno.ENOENT
          | Some cid -> (
              let is_last = rest = [] in
              match node_of st cid with
              | NSymlink target when (not is_last) || follow_last ->
                  if depth >= max_symlink_depth then
                    Error Kernel.Errno.ELOOP
                  else begin
                    match split_path target with
                    | None -> Error Kernel.Errno.EINVAL
                    | Some tcomps -> (
                        match
                          resolve_from st ~follow_last:true
                            ~depth:(depth + 1) root_id tcomps
                        with
                        | Error _ as e -> e
                        | Ok tid -> resolve_from st ~follow_last ~depth tid rest
                        )
                  end
              | _ -> resolve_from st ~follow_last ~depth cid rest))
      | _ -> Error Kernel.Errno.ENOTDIR)

let resolve ?(follow_last = true) st path =
  match split_path path with
  | None -> Error Kernel.Errno.EINVAL
  | Some comps -> resolve_from st ~follow_last ~depth:0 root_id comps

(** [resolve_parent st path] = (parent dir id, basename). Intermediate
    symlinks are followed; the final component is not resolved. *)
let resolve_parent st path : (int * string, Kernel.Errno.t) result =
  match split_path path with
  | None | Some [] -> Error Kernel.Errno.EINVAL
  | Some comps -> (
      let rev = List.rev comps in
      let base = List.hd rev and parents = List.rev (List.tl rev) in
      match resolve_from st ~follow_last:true ~depth:0 root_id parents with
      | Error _ as e -> e
      | Ok id -> (
          match node_of st id with
          | NDir _ -> Ok (id, base)
          | _ -> Error Kernel.Errno.ENOTDIR))

(* ------------------------------------------------------------------ *)
(* Derived queries                                                     *)
(* ------------------------------------------------------------------ *)

(* st_nlink, computed the POSIX way: a file counts its directory entries;
   a directory counts 2 ("." and parent entry — or both self-links for
   the root) plus one ".." per subdirectory; a symlink is 1. *)
let nlink st id =
  match node_of st id with
  | NSymlink _ -> 1
  | NFile ->
      IM.fold
        (fun _ n acc ->
          match n with
          | NDir entries ->
              SM.fold (fun _ cid a -> if cid = id then a + 1 else a) entries acc
          | _ -> acc)
        st.nodes 0
  | NDir entries ->
      2
      + SM.fold
          (fun _ cid a ->
            match node_of st cid with NDir _ -> a + 1 | _ -> a)
          entries 0

let kind_of_node = function
  | NDir _ -> KDir
  | NFile -> KFile
  | NSymlink _ -> KSymlink

(** Depth-first listing of every path in the namespace (root excluded),
    sorted, with node ids. *)
let rows st : (string * int * node) list =
  let out = ref [] in
  let rec go prefix entries =
    SM.iter
      (fun name id ->
        let path = prefix ^ "/" ^ name in
        let n = node_of st id in
        out := (path, id, n) :: !out;
        match n with NDir sub -> go path sub | _ -> ())
      entries
  in
  (match node_of st root_id with NDir e -> go "" e | _ -> assert false);
  List.sort (fun (a, _, _) (b, _, _) -> compare a b) !out

(** One path per distinct regular file (hard links collapse onto the
    lexicographically first path). *)
let files st : (string * int) list =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (path, id, n) ->
      match n with
      | NFile when not (Hashtbl.mem seen id) ->
          Hashtbl.add seen id ();
          Some (path, id)
      | _ -> None)
    (rows st)

(** Canonical digest of the namespace shape: paths, kinds, symlink
    targets, and hard-link grouping — but not file sizes or contents
    (checked separately, since data durability is per-file). *)
let canon st =
  let group = Hashtbl.create 16 in
  let next_group = ref 0 in
  let lines =
    List.map
      (fun (path, id, n) ->
        match n with
        | NDir _ -> Printf.sprintf "d %s" path
        | NSymlink target -> Printf.sprintf "s %s -> %s" path target
        | NFile ->
            let g =
              match Hashtbl.find_opt group id with
              | Some g -> g
              | None ->
                  let g = !next_group in
                  incr next_group;
                  Hashtbl.add group id g;
                  g
            in
            Printf.sprintf "f %s g%d" path g)
      (rows st)
  in
  String.concat "\n" lines

(** Is [id] a strict descendant of (or equal to) directory [anc]? Used by
    the generator to refuse directory renames into their own subtree —
    POSIX EINVAL territory that xv6fs only polices one level deep. *)
let in_subtree st ~anc id =
  if anc = id then true
  else
    let rec search d =
      match node_of st d with
      | NDir entries ->
          SM.exists (fun _ cid -> cid = id || search cid) entries
      | _ -> false
    in
    search anc

(* ------------------------------------------------------------------ *)
(* Transition function                                                 *)
(* ------------------------------------------------------------------ *)

(** What [apply] tells its caller beyond the new state; the trace builder
    turns these into expected {!outcome}s plus its own content/durability
    bookkeeping (it owns the file contents, keyed by node id). *)
type result_ =
  | R_unit
  | R_err of Kernel.Errno.t
  | R_created of int  (** new empty file, node id *)
  | R_wrote of int  (** write applied to file id *)
  | R_read of int  (** read of file id *)
  | R_stat of { kind : kind; file : int option; nlink : int }
  | R_readlink of string
  | R_names of string list
  | R_fsync of int  (** fsync completed on file id *)
  | R_sync

let add_node st node =
  let id = st.next_id in
  ({ nodes = IM.add id node st.nodes; next_id = id + 1 }, id)

let update_dir st id entries =
  { st with nodes = IM.add id (NDir entries) st.nodes }

let err e = R_err e

let apply st op : state * result_ =
  let module E = Kernel.Errno in
  match op with
  | Create path -> (
      match resolve st path with
      | Ok id -> (
          (* open O_CREAT on an existing object *)
          match node_of st id with
          | NDir _ -> (st, err E.EISDIR)
          | _ -> (st, R_unit))
      | Error E.ENOENT -> (
          match resolve_parent st path with
          | Error e -> (st, err e)
          | Ok (pid, base) -> (
              match node_of st pid with
              | NDir entries ->
                  if SM.mem base entries then
                    (* dangling final symlink: Os's O_CREAT retry path
                       resolves it again and reports ENOENT *)
                    (st, err E.ENOENT)
                  else
                    let st, id = add_node st NFile in
                    (update_dir st pid (SM.add base id entries), R_created id)
              | _ -> (st, err E.ENOTDIR)))
      | Error e -> (st, err e))
  | Write { path; _ } -> (
      match resolve st path with
      | Error e -> (st, err e)
      | Ok id -> (
          match node_of st id with
          | NDir _ -> (st, err E.EISDIR)
          | NFile -> (st, R_wrote id)
          | NSymlink _ -> assert false))
  | Read path -> (
      match resolve st path with
      | Error e -> (st, err e)
      | Ok id -> (
          match node_of st id with
          | NDir _ -> (st, err E.EISDIR)
          | NFile -> (st, R_read id)
          | NSymlink _ -> assert false))
  | Mkdir path -> (
      match resolve_parent st path with
      | Error e -> (st, err e)
      | Ok (pid, base) -> (
          match node_of st pid with
          | NDir entries ->
              if SM.mem base entries then (st, err E.EEXIST)
              else
                let st, id = add_node st (NDir SM.empty) in
                (update_dir st pid (SM.add base id entries), R_unit)
          | _ -> (st, err E.ENOTDIR)))
  | Unlink path -> (
      match resolve_parent st path with
      | Error e -> (st, err e)
      | Ok (pid, base) -> (
          match node_of st pid with
          | NDir entries -> (
              match SM.find_opt base entries with
              | None -> (st, err E.ENOENT)
              | Some id -> (
                  match node_of st id with
                  | NDir _ -> (st, err E.EISDIR)
                  | _ -> (update_dir st pid (SM.remove base entries), R_unit)))
          | _ -> (st, err E.ENOTDIR)))
  | Rmdir path -> (
      match resolve_parent st path with
      | Error e -> (st, err e)
      | Ok (pid, base) -> (
          match node_of st pid with
          | NDir entries -> (
              match SM.find_opt base entries with
              | None -> (st, err E.ENOENT)
              | Some id -> (
                  match node_of st id with
                  | NDir sub ->
                      if not (SM.is_empty sub) then (st, err E.ENOTEMPTY)
                      else
                        (update_dir st pid (SM.remove base entries), R_unit)
                  | _ -> (st, err E.ENOTDIR)))
          | _ -> (st, err E.ENOTDIR)))
  | Rename (oldp, newp) -> (
      match resolve_parent st oldp with
      | Error e -> (st, err e)
      | Ok (opid, oname) -> (
          match resolve_parent st newp with
          | Error e -> (st, err e)
          | Ok (npid, nname) -> (
              let oentries =
                match node_of st opid with
                | NDir e -> e
                | _ -> assert false
              in
              match SM.find_opt oname oentries with
              | None -> (st, err E.ENOENT)
              | Some src -> (
                  if src = npid then (st, err E.EINVAL)
                  else
                    let nentries =
                      match node_of st npid with
                      | NDir e -> e
                      | _ -> assert false
                    in
                    match SM.find_opt nname nentries with
                    | Some dst when dst = src ->
                        (* POSIX: same object, do nothing *)
                        (st, R_unit)
                    | Some dst -> (
                        let src_dir =
                          match node_of st src with
                          | NDir _ -> true
                          | _ -> false
                        in
                        match node_of st dst with
                        | NDir sub ->
                            if not src_dir then (st, err E.EISDIR)
                            else if not (SM.is_empty sub) then
                              (st, err E.ENOTEMPTY)
                            else
                              let st =
                                update_dir st opid (SM.remove oname oentries)
                              in
                              let nentries =
                                match node_of st npid with
                                | NDir e -> e
                                | _ -> assert false
                              in
                              ( update_dir st npid
                                  (SM.add nname src nentries),
                                R_unit )
                        | _ ->
                            if src_dir then (st, err E.ENOTDIR)
                            else
                              let st =
                                update_dir st opid (SM.remove oname oentries)
                              in
                              let nentries =
                                match node_of st npid with
                                | NDir e -> e
                                | _ -> assert false
                              in
                              ( update_dir st npid
                                  (SM.add nname src nentries),
                                R_unit ))
                    | None ->
                        let st =
                          update_dir st opid (SM.remove oname oentries)
                        in
                        let nentries =
                          match node_of st npid with
                          | NDir e -> e
                          | _ -> assert false
                        in
                        (update_dir st npid (SM.add nname src nentries), R_unit)
                  ))))
  | Link (oldp, newp) -> (
      match resolve st oldp with
      | Error e -> (st, err e)
      | Ok id -> (
          match node_of st id with
          | NDir _ -> (st, err E.EPERM)
          | _ -> (
              match resolve_parent st newp with
              | Error e -> (st, err e)
              | Ok (pid, base) -> (
                  match node_of st pid with
                  | NDir entries ->
                      if SM.mem base entries then (st, err E.EEXIST)
                      else (update_dir st pid (SM.add base id entries), R_unit)
                  | _ -> (st, err E.ENOTDIR)))))
  | Symlink { target; link } -> (
      match resolve_parent st link with
      | Error e -> (st, err e)
      | Ok (pid, base) -> (
          match node_of st pid with
          | NDir entries ->
              if SM.mem base entries then (st, err E.EEXIST)
              else
                let st, id = add_node st (NSymlink target) in
                (update_dir st pid (SM.add base id entries), R_unit)
          | _ -> (st, err E.ENOTDIR)))
  | Readlink path -> (
      match resolve ~follow_last:false st path with
      | Error e -> (st, err e)
      | Ok id -> (
          match node_of st id with
          | NSymlink target -> (st, R_readlink target)
          | _ -> (st, err E.EINVAL)))
  | Stat path -> (
      match resolve st path with
      | Error e -> (st, err e)
      | Ok id ->
          let n = node_of st id in
          ( st,
            R_stat
              {
                kind = kind_of_node n;
                file = (match n with NFile -> Some id | _ -> None);
                nlink = nlink st id;
              } ))
  | Readdir path -> (
      match resolve st path with
      | Error e -> (st, err e)
      | Ok id -> (
          match node_of st id with
          | NDir entries ->
              let names =
                "." :: ".." :: List.map fst (SM.bindings entries)
                |> List.sort compare
              in
              (st, R_names names)
          | _ -> (st, err E.ENOTDIR)))
  | Fsync path -> (
      match resolve st path with
      | Error e -> (st, err e)
      | Ok id -> (
          match node_of st id with
          | NFile -> (st, R_fsync id)
          | NDir _ -> (st, R_unit)
          | NSymlink _ -> assert false))
  | Sync -> (st, R_sync)
