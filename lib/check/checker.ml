(** The crash-consistency and differential-correctness checker.

    Three moving parts:

    - an executor that replays a {!Workload.trace} through a mounted
      stack's syscall layer and normalizes each result to a
      {!Model.outcome};
    - a differential driver that runs the same trace through any subset
      of the {!Stacks} and diffs every op's outcome against the
      oracle's;
    - a crash-point enumerator: during one live run it snapshots the
      device at every write/flush command boundary
      ({!Device.Ssd.set_command_hook}), then for each snapshot builds a
      fresh machine with exactly the blocks a power failure would have
      left (optionally plus a random subset of the volatile cache —
      torn crashes), mounts (which runs log replay / [Jbd2.recover]),
      runs the offline fsck, and checks that the recovered tree is one
      of the oracle's legal post-crash states.

    Legality, as tracked by the oracle: the recovered namespace must be
    a prefix of the metadata history no older than the last completed
    durability barrier (fsync/sync) and no newer than the op in flight
    at the crash; each file's contents must match, per page, some
    version no older than the file's last fsync-covered version; sizes
    must come from recorded versions. This is a sound over-approximation
    of what the single ordered journal in each stack can produce, so a
    reported violation is always a real bug. *)

(* ------------------------------------------------------------------ *)
(* Executor                                                            *)
(* ------------------------------------------------------------------ *)

let kind_of_vfs = function
  | Kernel.Vfs.Reg -> Model.KFile
  | Kernel.Vfs.Dir -> Model.KDir
  | Kernel.Vfs.Symlink -> Model.KSymlink

(** Run one op through the syscall layer; normalize to an oracle outcome. *)
let exec_op os ~seed ~opidx (op : Model.op) : Model.outcome =
  let module O = Kernel.Os in
  let norm = function Ok () -> Model.Ok_unit | Error e -> Model.Err e in
  match op with
  | Model.Create path -> (
      match O.open_ os path (O.creat O.wronly) with
      | Error e -> Model.Err e
      | Ok fd ->
          ignore (O.close os fd);
          Model.Ok_unit)
  | Model.Write { path; pos; len } -> (
      match O.open_ os path O.wronly with
      | Error e -> Model.Err e
      | Ok fd ->
          let data = Workload.payload ~seed ~opidx ~len in
          let r = O.pwrite os fd ~pos data in
          ignore (O.close os fd);
          (match r with
          | Ok n when n = len -> Model.Ok_unit
          | Ok _ -> Model.Err Kernel.Errno.EIO (* short write *)
          | Error e -> Model.Err e))
  | Model.Read path -> (
      match O.read_file os path with
      | Ok b -> Model.Ok_data (Workload.digest b)
      | Error e -> Model.Err e)
  | Model.Mkdir p -> norm (O.mkdir os p)
  | Model.Unlink p -> norm (O.unlink os p)
  | Model.Rmdir p -> norm (O.rmdir os p)
  | Model.Rename (a, b) -> norm (O.rename os a b)
  | Model.Link (a, b) -> norm (O.link os a b)
  | Model.Symlink { target; link } -> norm (O.symlink os target link)
  | Model.Readlink p -> (
      match O.readlink os p with
      | Ok s -> Model.Ok_data s
      | Error e -> Model.Err e)
  | Model.Stat p -> (
      match O.stat os p with
      | Ok st ->
          Model.Ok_stat
            {
              kind = kind_of_vfs st.Kernel.Vfs.st_kind;
              size =
                (if st.Kernel.Vfs.st_kind = Kernel.Vfs.Reg then
                   Some st.Kernel.Vfs.st_size
                 else None);
              nlink = st.Kernel.Vfs.st_nlink;
            }
      | Error e -> Model.Err e)
  | Model.Readdir p -> (
      match O.readdir os p with
      | Ok l ->
          Model.Ok_names
            (List.map (fun d -> d.Kernel.Vfs.d_name) l |> List.sort compare)
      | Error e -> Model.Err e)
  | Model.Fsync p -> (
      match O.open_ os p O.rdonly with
      | Error e -> Model.Err e
      | Ok fd ->
          let r = O.fsync os fd in
          ignore (O.close os fd);
          norm r)
  | Model.Sync -> norm (O.sync os)

(* ------------------------------------------------------------------ *)
(* Differential driver                                                 *)
(* ------------------------------------------------------------------ *)

type divergence = {
  d_idx : int;
  d_op : string;
  d_expected : string;
  d_got : (string * string) list;  (** (stack, outcome) for every stack *)
}

let default_disk_blocks = 32768 (* 128 MB *)

(** The stacks [check --fs all] covers: those the crash checker finds
    clean. The C-kernel baseline still has known crash bugs. *)
let crash_clean = Stacks.[ Bento; Fuse; Ext4 ]

(** Run the whole trace through one stack on a fresh machine. *)
let run_stack ?(disk_blocks = default_disk_blocks) (trace : Workload.trace)
    kind : Model.outcome array =
  let machine = Kernel.Machine.create ~disk_blocks ~block_size:4096 () in
  let n = Workload.n_ops trace in
  let out = Array.make n Model.Ok_unit in
  Kernel.Machine.spawn ~name:("check-" ^ Stacks.name kind) machine (fun () ->
      Stacks.mkfs kind machine;
      let os, unmount = Stacks.mount ~background:false kind machine in
      Array.iteri
        (fun i op ->
          out.(i) <- exec_op os ~seed:trace.Workload.seed ~opidx:i op)
        trace.Workload.ops;
      unmount ());
  Kernel.Machine.run machine;
  out

(** Diff every stack's per-op outcomes against the oracle's. *)
let differential ?disk_blocks (trace : Workload.trace)
    (stacks : Stacks.t list) : divergence list =
  let results =
    List.map (fun k -> (k, run_stack ?disk_blocks trace k)) stacks
  in
  let divs = ref [] in
  Array.iteri
    (fun i expected ->
      let got = List.map (fun (k, out) -> (k, out.(i))) results in
      if
        List.exists
          (fun (_, o) -> not (Model.outcome_equal o expected))
          got
      then
        divs :=
          {
            d_idx = i;
            d_op = Model.op_to_string trace.Workload.ops.(i);
            d_expected = Model.outcome_to_string expected;
            d_got =
              List.map
                (fun (k, o) -> (Stacks.name k, Model.outcome_to_string o))
                got;
          }
          :: !divs)
    trace.Workload.expected;
  List.rev !divs

(* ------------------------------------------------------------------ *)
(* Crash-point capture                                                 *)
(* ------------------------------------------------------------------ *)

type ctx = { started : int; completed : int; barrier : int }

type point = {
  pid : int;  (** 1-based capture index *)
  epoch : int;  (** device stable epoch at capture *)
  stable : (int * Bytes.t) array;  (** durable image, sparse; shared *)
  volatile : (int * Bytes.t) list;  (** in-cache blocks at stake *)
  pctx : ctx;
}

(** Live run of the trace on [kind] with the device hook installed:
    returns every crash point (one per write/flush command boundary). *)
let capture_run ?(disk_blocks = default_disk_blocks) (trace : Workload.trace)
    kind : point list =
  let machine = Kernel.Machine.create ~disk_blocks ~block_size:4096 () in
  let dev = Kernel.Machine.disk machine in
  let points = ref [] in
  let npoints = ref 0 in
  let cached_epoch = ref (-1) in
  let cached_stable = ref [||] in
  let started = ref 0 and completed = ref (-1) and barrier = ref (-1) in
  let capture cmd =
    match cmd with
    | Device.Ssd.Cmd_read -> ()
    | Device.Ssd.Cmd_write | Device.Ssd.Cmd_flush ->
        let epoch = Device.Ssd.stable_epoch dev in
        if !cached_epoch <> epoch then begin
          let acc = ref [] in
          Array.iteri
            (fun i o -> match o with Some b -> acc := (i, b) :: !acc | None -> ())
            (Device.Ssd.crash_view dev);
          cached_stable := Array.of_list (List.rev !acc);
          cached_epoch := epoch
        end;
        incr npoints;
        points :=
          {
            pid = !npoints;
            epoch;
            stable = !cached_stable;
            volatile = Device.Ssd.volatile_view dev;
            pctx =
              { started = !started; completed = !completed; barrier = !barrier };
          }
          :: !points
  in
  Kernel.Machine.spawn ~name:("crash-" ^ Stacks.name kind) machine (fun () ->
      Stacks.mkfs kind machine;
      (* Make the fresh image durable: a crash before the first barrier
         must still find a mountable file system. *)
      Device.Ssd.flush dev;
      let os, unmount = Stacks.mount ~background:false kind machine in
      Device.Ssd.set_command_hook dev (Some capture);
      Array.iteri
        (fun i op ->
          started := i;
          let o = exec_op os ~seed:trace.Workload.seed ~opidx:i op in
          completed := i;
          match (op, o) with
          | (Model.Fsync _ | Model.Sync), Model.Ok_unit -> barrier := i
          | _ -> ())
        trace.Workload.ops;
      (* Crash points inside unmount writeback are still bounded by the
         final op. *)
      unmount ();
      Device.Ssd.set_command_hook dev None);
  Kernel.Machine.run machine;
  List.rev !points

(* ------------------------------------------------------------------ *)
(* Recovered-tree walk and legality                                    *)
(* ------------------------------------------------------------------ *)

type rnode = RDir | RFile of Bytes.t | RSym of string

exception Walk_failed of string

let walk os : (string * int * rnode) list =
  let module O = Kernel.Os in
  let out = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> raise (Walk_failed s)) fmt in
  let get what path = function
    | Ok v -> v
    | Error e -> fail "%s %s: %s" what path (Kernel.Errno.to_string e)
  in
  let rec go path =
    let ents = get "readdir" path (O.readdir os path) in
    List.iter
      (fun d ->
        let name = d.Kernel.Vfs.d_name in
        if name <> "." && name <> ".." then begin
          let p = Workload.join path name in
          let st = get "lstat" p (O.lstat os p) in
          match st.Kernel.Vfs.st_kind with
          | Kernel.Vfs.Dir ->
              out := (p, st.Kernel.Vfs.st_ino, RDir) :: !out;
              go p
          | Kernel.Vfs.Symlink ->
              let t = get "readlink" p (O.readlink os p) in
              out := (p, st.Kernel.Vfs.st_ino, RSym t) :: !out
          | Kernel.Vfs.Reg ->
              let b = get "read" p (O.read_file os p) in
              out := (p, st.Kernel.Vfs.st_ino, RFile b) :: !out
        end)
      ents
  in
  go "/";
  List.sort (fun (a, _, _) (b, _, _) -> compare a b) !out

(* Same canonical form as Model.canon: hard-link groups numbered by first
   appearance in sorted path order. *)
let canon_rows rows =
  let group = Hashtbl.create 16 in
  let next = ref 0 in
  let lines =
    List.map
      (fun (p, ino, n) ->
        match n with
        | RDir -> Printf.sprintf "d %s" p
        | RSym t -> Printf.sprintf "s %s -> %s" p t
        | RFile _ ->
            let g =
              match Hashtbl.find_opt group ino with
              | Some g -> g
              | None ->
                  let g = !next in
                  incr next;
                  Hashtbl.add group ino g;
                  g
            in
            Printf.sprintf "f %s g%d" p g)
      rows
  in
  String.concat "\n" lines

let all_zero b =
  let n = Bytes.length b in
  let rec go i = i >= n || (Bytes.get b i = '\000' && go (i + 1)) in
  go 0

let page_size = 4096

(** Check one file's recovered contents against its legal versions. *)
let data_check_file trace ~started ~completed ~path ~id (r : Bytes.t) :
    (unit, string) result =
  let s = Bytes.length r in
  let versions = Workload.versions_upto trace ~id ~upto:started in
  let floor =
    match Workload.barrier_for trace ~id ~completed with
    | None -> None
    | Some b -> List.find_opt (fun (i, _) -> i <= b) versions
  in
  let allowed =
    match floor with
    | None -> versions
    | Some (fi, _) -> List.filter (fun (i, _) -> i >= fi) versions
  in
  if allowed = [] then
    Error (Printf.sprintf "%s: no recorded version at all" path)
  else if
    (match floor with
    | Some (_, fb) -> s < Bytes.length fb
    | None -> false)
  then
    Error
      (Printf.sprintf "%s: size %d below fsynced size %d" path s
         (match floor with Some (_, fb) -> Bytes.length fb | None -> 0))
  else if not (List.exists (fun (_, b) -> Bytes.length b = s) allowed) then
    Error
      (Printf.sprintf "%s: size %d matches no legal version (allowed: %s)"
         path s
         (String.concat ","
            (List.map (fun (i, b) -> Printf.sprintf "%d@op%d" (Bytes.length b) i)
               allowed)))
  else begin
    let npages = (s + page_size - 1) / page_size in
    let bad = ref None in
    for p = 0 to npages - 1 do
      if !bad = None then begin
        let off = p * page_size in
        let plen = min page_size (s - off) in
        let rslice = Bytes.sub r off plen in
        let matches (_, v) =
          let vs = Bytes.make plen '\000' in
          let avail = min plen (max 0 (Bytes.length v - off)) in
          if avail > 0 then Bytes.blit v off vs 0 avail;
          Bytes.equal vs rslice
        in
        let zero_ok =
          all_zero rslice
          &&
          match floor with
          | None -> true
          | Some (_, fb) -> off >= Bytes.length fb
        in
        if not (List.exists matches allowed || zero_ok) then
          bad :=
            Some
              (Printf.sprintf
                 "%s: page %d (%s) matches no legal version of ops [%s]" path p
                 (Workload.digest rslice)
                 (String.concat ","
                    (List.map (fun (i, _) -> string_of_int i) allowed)))
      end
    done;
    match !bad with None -> Ok () | Some m -> Error m
  end

let first_diff_line a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go = function
    | x :: xs, y :: ys -> if x = y then go (xs, ys) else Some (x, y)
    | x :: _, [] -> Some (x, "<missing>")
    | [], y :: _ -> Some ("<missing>", y)
    | [], [] -> None
  in
  go (la, lb)

(** Is the recovered tree one of the oracle's legal post-crash states for
    this crash point? *)
let check_recovered (trace : Workload.trace) ~(canons : string array)
    (pctx : ctx) rows : (unit, string) result =
  let lo = trace.Workload.md_before.(pctx.barrier + 1) in
  let hi = trace.Workload.md_before.(pctx.started + 1) in
  let rcanon = canon_rows rows in
  let content = Hashtbl.create 16 in
  List.iter
    (fun (p, _, n) ->
      match n with RFile b -> Hashtbl.replace content p b | _ -> ())
    rows;
  let matched = ref 0 in
  let data_err = ref None in
  let rec try_j j =
    if j < lo then begin
      if !matched = 0 then
        Error
          (Printf.sprintf
             "namespace matches no legal metadata prefix in [%d,%d]%s" lo hi
             (match first_diff_line rcanon canons.(hi) with
             | Some (got, want) ->
                 Printf.sprintf " (vs prefix %d: got %S, want %S)" hi got want
             | None -> ""))
      else
        Error
          (Printf.sprintf
             "namespace legal but data is not: %s"
             (match !data_err with Some e -> e | None -> "?"))
    end
    else if String.equal canons.(j) rcanon then begin
      incr matched;
      match
        List.fold_left
          (fun acc (path, id) ->
            match acc with
            | Error _ -> acc
            | Ok () -> (
                match Hashtbl.find_opt content path with
                | None -> Error (path ^ ": in model but not recovered")
                | Some r ->
                    data_check_file trace ~started:pctx.started
                      ~completed:pctx.completed ~path ~id r))
          (Ok ())
          (Model.files trace.Workload.md_states.(j))
      with
      | Ok () -> Ok ()
      | Error e ->
          if !data_err = None then data_err := Some e;
          try_j (j - 1)
    end
    else try_j (j - 1)
  in
  try_j hi

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

type violation = {
  v_point : int;
  v_torn : float option;  (** survive probability, for torn replays *)
  v_started : int;
  v_completed : int;
  v_barrier : int;
  v_detail : string;
  v_ops : (int * string) list;
      (** the op window at stake: last barrier through the in-flight op *)
}

let op_window (trace : Workload.trace) (pctx : ctx) =
  let lo = max 0 pctx.barrier and hi = pctx.started in
  let lo = max lo (hi - 7) in
  List.init
    (max 0 (hi - lo + 1))
    (fun k ->
      let i = lo + k in
      (i, Model.op_to_string trace.Workload.ops.(i)))

(** Rebuild the crashed image on a fresh machine, mount (= recover),
    fsck, walk, and check legality. [tear]: additionally let each
    volatile block survive with the given probability (torn crash). *)
let replay_point ?(disk_blocks = default_disk_blocks) ?(inject_bug = false)
    (trace : Workload.trace) ~canons kind (pt : point)
    ~(tear : (float * Sim.Rng.t) option) : violation option =
  let machine = Kernel.Machine.create ~disk_blocks ~block_size:4096 () in
  let dev = Kernel.Machine.disk machine in
  Array.iter (fun (blk, b) -> Device.Ssd.Offline.write dev blk b) pt.stable;
  (match tear with
  | None -> ()
  | Some (p, rng) ->
      List.iter
        (fun (blk, b) ->
          if Sim.Rng.float rng < p then Device.Ssd.Offline.write dev blk b)
        pt.volatile);
  if inject_bug then Stacks.nuke_log kind machine;
  let rows = ref [] in
  let failed = ref None in
  Kernel.Machine.spawn ~name:"replay" machine (fun () ->
      match Stacks.mount ~background:false kind machine with
      | os, unmount ->
          (* always unmount, even when the walk fails: the FUSE daemon
             fiber must be stopped or the machine can never drain *)
          (try rows := walk os
           with
          | Walk_failed msg -> failed := Some msg
          | Kernel.Errno.Error e ->
              failed := Some ("walk: " ^ Kernel.Errno.to_string e));
          unmount ()
      | exception Kernel.Errno.Error e ->
          failed := Some ("mount: " ^ Kernel.Errno.to_string e));
  (try Kernel.Machine.run machine
   with e -> failed := Some ("simulation: " ^ Printexc.to_string e));
  let result =
    match !failed with
    | Some m -> Error ("recovery failed: " ^ m)
    | None -> (
        match Stacks.fsck kind machine with
        | [] -> check_recovered trace ~canons pt.pctx !rows
        | errs ->
            Error
              (Printf.sprintf "fsck: %s"
                 (String.concat "; "
                    (List.filteri (fun i _ -> i < 3) errs))))
  in
  match result with
  | Ok () -> None
  | Error detail ->
      Some
        {
          v_point = pt.pid;
          v_torn = (match tear with Some (p, _) -> Some p | None -> None);
          v_started = pt.pctx.started;
          v_completed = pt.pctx.completed;
          v_barrier = pt.pctx.barrier;
          v_detail = detail;
          v_ops = op_window trace pt.pctx;
        }

(* ------------------------------------------------------------------ *)
(* Crash check driver                                                  *)
(* ------------------------------------------------------------------ *)

type crash_summary = {
  c_stack : string;
  c_points_captured : int;
  c_points_tested : int;
  c_torn_tested : int;
  c_violations : violation list;
}

type mode = All | Sample of int

(* Last capture of each distinct stable epoch: the deterministic
   (survive = 0) crash states, deduplicated. *)
let distinct_epochs points =
  let rec go acc = function
    | [] -> List.rev acc
    | p :: rest -> (
        match rest with
        | q :: _ when q.epoch = p.epoch -> go acc rest
        | _ -> go (p :: acc) rest)
  in
  go [] points

let sample_list rng k l =
  if List.length l <= k then l
  else begin
    let arr = Array.of_list l in
    Sim.Rng.shuffle rng arr;
    Array.to_list (Array.sub arr 0 k)
    |> List.sort (fun a b -> compare a.pid b.pid)
  end

(** Enumerate crash points for [trace] on [kind] and check every selected
    one. [All] replays each distinct durable state; [Sample n] replays a
    seeded sample plus as many torn variants (random subsets of the
    volatile cache surviving). *)
let crash_check ?disk_blocks ?(inject_bug = false) ?(mode = All)
    (trace : Workload.trace) kind : crash_summary =
  let points = capture_run ?disk_blocks trace kind in
  let canons =
    Array.map Model.canon trace.Workload.md_states
  in
  let rng = Sim.Rng.create (trace.Workload.seed + 0x5eed) in
  let clean, torn =
    match mode with
    | All -> (distinct_epochs points, [])
    | Sample n ->
        let clean = sample_list rng (max 1 (n / 2)) (distinct_epochs points) in
        let torn =
          sample_list rng (max 1 (n - List.length clean)) points
          |> List.map (fun p ->
                 let survive = [| 0.3; 0.6; 0.9 |].(Sim.Rng.int rng 3) in
                 (p, survive, Sim.Rng.split rng))
        in
        (clean, torn)
  in
  let violations = ref [] in
  List.iter
    (fun p ->
      match
        replay_point ?disk_blocks ~inject_bug trace ~canons kind p ~tear:None
      with
      | Some v -> violations := v :: !violations
      | None -> ())
    clean;
  List.iter
    (fun (p, survive, r) ->
      match
        replay_point ?disk_blocks ~inject_bug trace ~canons kind p
          ~tear:(Some (survive, r))
      with
      | Some v -> violations := v :: !violations
      | None -> ())
    torn;
  {
    c_stack = Stacks.name kind;
    c_points_captured = List.length points;
    c_points_tested = List.length clean;
    c_torn_tested = List.length torn;
    c_violations = List.rev !violations;
  }

(* ------------------------------------------------------------------ *)
(* Top-level report                                                    *)
(* ------------------------------------------------------------------ *)

type report = {
  r_seed : int;
  r_ops : int;
  r_divergences : divergence list;
  r_crashes : crash_summary list;
}

let report_ok r =
  r.r_divergences = []
  && List.for_all (fun c -> c.c_violations = []) r.r_crashes

(** Run the full checker over an already-built trace. *)
let run_trace ?disk_blocks ?inject_bug ?(mode = Some (Sample 32))
    ~(stacks : Stacks.t list) (trace : Workload.trace) : report =
  let divergences = differential ?disk_blocks trace stacks in
  let crashes =
    match mode with
    | None -> []
    | Some mode ->
        List.map
          (fun k -> crash_check ?disk_blocks ?inject_bug ~mode trace k)
          stacks
  in
  {
    r_seed = trace.Workload.seed;
    r_ops = Workload.n_ops trace;
    r_divergences = divergences;
    r_crashes = crashes;
  }

(** Generate the workload from [seed] and run the full checker. *)
let run ?disk_blocks ?inject_bug ?mode ~seed ~ops ~stacks () : report =
  let trace = Workload.generate ~seed ~ops () in
  run_trace ?disk_blocks ?inject_bug ?mode ~stacks trace

let pp_violation ~seed ~stack ppf (v : violation) =
  Format.fprintf ppf
    "@[<v2>VIOLATION %s crash-point %d%s (op in flight: %d, last completed: \
     %d, last barrier: %d):@ %s@ op trace:%t@ reproduce: bento_cli check \
     --seed %d --fs %s --crash-points all@]"
    stack v.v_point
    (match v.v_torn with
    | Some p -> Printf.sprintf " (torn, survive=%.1f)" p
    | None -> "")
    v.v_started v.v_completed v.v_barrier v.v_detail
    (fun ppf ->
      List.iter
        (fun (i, s) -> Format.fprintf ppf "@   op %d: %s" i s)
        v.v_ops)
    seed stack

let pp_report ppf r =
  Format.fprintf ppf "check: seed=%d ops=%d@." r.r_seed r.r_ops;
  (match r.r_divergences with
  | [] -> Format.fprintf ppf "differential: 0 divergences@."
  | divs ->
      Format.fprintf ppf "differential: %d divergence(s)@." (List.length divs);
      List.iter
        (fun d ->
          Format.fprintf ppf "  op %d: %s@.    oracle: %s@." d.d_idx d.d_op
            d.d_expected;
          List.iter
            (fun (s, o) -> Format.fprintf ppf "    %-5s: %s@." s o)
            d.d_got)
        divs);
  List.iter
    (fun c ->
      Format.fprintf ppf
        "crash %-5s: %d points captured, %d clean + %d torn replayed, %d \
         violation(s)@."
        c.c_stack c.c_points_captured c.c_points_tested c.c_torn_tested
        (List.length c.c_violations);
      List.iter
        (fun v ->
          Format.fprintf ppf "  %a@."
            (pp_violation ~seed:r.r_seed ~stack:c.c_stack)
            v)
        c.c_violations)
    r.r_crashes
