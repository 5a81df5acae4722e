(** Crash consistency under the multi-tenant file server.

    The plain checker crashes a stack under a local syscall workload; this
    module crashes it under the *server*: N client sessions attach over the
    wire, create one file each, buffer writes in their write-lease caches
    (nothing reaches the server until flush), then commit at staggered
    times. The SSD command hook snapshots a crash point at every device
    write/flush boundary — i.e. mid-commit of one session while the
    others still hold dirty client caches — together with which sessions'
    [Commit] RPCs had already returned at that instant.

    Replay rebuilds each sampled crash image on a fresh machine, mounts
    (which runs log recovery), runs the offline fsck, and checks the
    per-session oracle:

    - a session whose [Commit] returned before the crash point must find
      its file with exactly the payload it wrote — the commit reply is a
      durability promise made over the wire, and the flush that backs it
      completed before the hook could observe the point;
    - an uncommitted session's file may be missing, or present at any
      size up to the payload length with every page either the payload
      bytes or still zero — never garbage, never a torn page.

    Sound for the same reason the plain checker is: the envelope
    over-approximates what the ordered log can legally produce, so every
    reported violation is a real bug. xv6 (BentoFS) stack only — that is
    the stack the server runs on. *)

let default_disk_blocks = 32768

type point = {
  pid : int;  (** 1-based capture index *)
  epoch : int;  (** device stable epoch at capture *)
  stable : (int * Bytes.t) array;  (** durable image, sparse; shared *)
  volatile : (int * Bytes.t) list;  (** in-cache blocks at stake *)
  p_committed : bool array;  (** per session: Commit RPC returned *)
}

type violation = {
  sv_point : int;
  sv_torn : float option;
  sv_session : int;  (** -1: not about one session (mount/fsck) *)
  sv_detail : string;
}

type report = {
  s_sessions : int;
  s_points_captured : int;
  s_points_tested : int;
  s_torn_tested : int;
  s_points_mixed : int;
      (** tested points where some sessions had committed and others not —
          the interesting mid-commit interleavings *)
  s_committed_at_end : int;
  s_violations : violation list;
}

let report_ok r = r.s_violations = []

let session_path i = Printf.sprintf "/crash%02d" i
let session_len i = 8192 + 1500 + (700 * i)
let session_payload ~seed i =
  Workload.payload ~seed ~opidx:(1000 + i) ~len:(session_len i)

let tenants =
  [
    ("gold", { Server.Qos.weight = 4; max_inflight = 16 });
    ("bronze", { Server.Qos.weight = 1; max_inflight = 8 });
  ]

(* ------------------------------------------------------------------ *)
(* Capture                                                             *)
(* ------------------------------------------------------------------ *)

let capture_run ~disk_blocks ~sessions ~seed : point list * bool array =
  let machine = Kernel.Machine.create ~disk_blocks ~block_size:4096 () in
  let dev = Kernel.Machine.disk machine in
  let committed = Array.make sessions false in
  let points = ref [] in
  let npoints = ref 0 in
  let cached_epoch = ref (-1) in
  let cached_stable = ref [||] in
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
            p_committed = Array.copy committed;
          }
          :: !points
  in
  Kernel.Machine.spawn ~name:"server-crash" machine (fun () ->
      Stacks.mkfs Stacks.Bento machine;
      (* a crash before any commit must still find a mountable image *)
      Device.Ssd.flush dev;
      let os, unmount = Stacks.mount ~background:false Stacks.Bento machine in
      let server =
        Server.Fileserver.start machine os
          { Server.Fileserver.tenants; max_inflight_total = 32 }
      in
      let listener = Server.Fileserver.listener server in
      Device.Ssd.set_command_hook dev (Some capture);
      let done_ = Sim.Sync.Semaphore.create 0 in
      for i = 0 to sessions - 1 do
        Kernel.Machine.spawn ~name:(Printf.sprintf "crash-cl-%d" i) machine
          (fun () ->
            let tenant = if i mod 2 = 0 then "gold" else "bronze" in
            (match Server.Client.attach machine listener ~tenant with
            | Error e ->
                failwith ("server_crash attach: " ^ Kernel.Errno.to_string e)
            | Ok cl ->
                let root = (Server.Client.root cl).Server.Proto.ino in
                (* stagger the sessions so commits interleave with other
                   sessions' still-dirty caches *)
                Sim.Engine.sleep (Int64.of_int (20_000 * i));
                let name = Printf.sprintf "crash%02d" i in
                (match Server.Client.create cl ~dir:root ~name ~write:true with
                | Error e ->
                    failwith
                      ("server_crash create: " ^ Kernel.Errno.to_string e)
                | Ok a ->
                    let ino = a.Server.Proto.ino in
                    let payload = session_payload ~seed i in
                    let len = Bytes.length payload in
                    (* buffer locally under the write lease, 2 KB at a
                       time: the client cache stays dirty until commit *)
                    let off = ref 0 in
                    while !off < len do
                      let n = min 2048 (len - !off) in
                      (match
                         Server.Client.write cl ino ~off:!off
                           (Bytes.sub payload !off n)
                       with
                      | Ok _ -> ()
                      | Error e ->
                          failwith
                            ("server_crash write: " ^ Kernel.Errno.to_string e));
                      off := !off + n;
                      Sim.Engine.sleep 10_000L
                    done;
                    Sim.Engine.sleep 30_000L;
                    (match Server.Client.commit cl ino with
                    | Ok () -> committed.(i) <- true
                    | Error e ->
                        failwith
                          ("server_crash commit: " ^ Kernel.Errno.to_string e));
                    ignore (Server.Client.close_ cl ino));
                Server.Client.detach cl);
            Sim.Sync.Semaphore.release done_)
      done;
      for _ = 1 to sessions do
        Sim.Sync.Semaphore.acquire done_
      done;
      Device.Ssd.set_command_hook dev None;
      Server.Fileserver.stop server;
      unmount ());
  Kernel.Machine.run machine;
  (List.rev !points, committed)

(* ------------------------------------------------------------------ *)
(* Replay and legality                                                 *)
(* ------------------------------------------------------------------ *)

let all_zero b =
  let n = Bytes.length b in
  let rec go i = i >= n || (Bytes.get b i = '\000' && go (i + 1)) in
  go 0

let page_size = 4096

(** One session's recovered file against its envelope. *)
let check_file ~payload ~committed
    (content : (Bytes.t, Kernel.Errno.t) result) : (unit, string) result =
  let len = Bytes.length payload in
  match (content, committed) with
  | Error Kernel.Errno.ENOENT, false -> Ok () (* create not yet durable *)
  | Error e, false -> Error ("unreadable: " ^ Kernel.Errno.to_string e)
  | Error e, true ->
      Error ("committed but lost: " ^ Kernel.Errno.to_string e)
  | Ok b, true ->
      if Bytes.equal b payload then Ok ()
      else
        Error
          (Printf.sprintf "committed file corrupt: size %d (want %d)%s"
             (Bytes.length b) len
             (if Bytes.length b = len then ", bytes differ" else ""))
  | Ok b, false ->
      let s = Bytes.length b in
      if s > len then
        Error (Printf.sprintf "size %d beyond anything written (%d)" s len)
      else begin
        let npages = (s + page_size - 1) / page_size in
        let bad = ref None in
        for p = 0 to npages - 1 do
          if !bad = None then begin
            let off = p * page_size in
            let plen = min page_size (s - off) in
            let rslice = Bytes.sub b off plen in
            let want = Bytes.sub payload off plen in
            if not (Bytes.equal rslice want || all_zero rslice) then
              bad :=
                Some
                  (Printf.sprintf
                     "page %d is neither the written bytes nor zero" p)
          end
        done;
        match !bad with None -> Ok () | Some m -> Error m
      end

let replay_point ~disk_blocks ~inject_bug ~sessions ~seed (pt : point)
    ~(tear : (float * Sim.Rng.t) option) : violation list =
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
  if inject_bug then Stacks.nuke_log Stacks.Bento machine;
  let contents =
    Array.make sessions (Error Kernel.Errno.EIO : (Bytes.t, _) result)
  in
  let failed = ref None in
  Kernel.Machine.spawn ~name:"server-crash-replay" machine (fun () ->
      match Stacks.mount ~background:false Stacks.Bento machine with
      | os, unmount ->
          for i = 0 to sessions - 1 do
            contents.(i) <- Kernel.Os.read_file os (session_path i)
          done;
          unmount ()
      | exception Kernel.Errno.Error e ->
          failed := Some ("mount: " ^ Kernel.Errno.to_string e));
  (try Kernel.Machine.run machine
   with e -> failed := Some ("simulation: " ^ Printexc.to_string e));
  let torn = match tear with Some (p, _) -> Some p | None -> None in
  let fail ~session detail =
    { sv_point = pt.pid; sv_torn = torn; sv_session = session; sv_detail = detail }
  in
  match !failed with
  | Some m -> [ fail ~session:(-1) ("recovery failed: " ^ m) ]
  | None -> (
      match Stacks.fsck Stacks.Bento machine with
      | _ :: _ as errs ->
          [
            fail ~session:(-1)
              (Printf.sprintf "fsck: %s"
                 (String.concat "; " (List.filteri (fun i _ -> i < 3) errs)));
          ]
      | [] ->
          let vs = ref [] in
          for i = sessions - 1 downto 0 do
            match
              check_file
                ~payload:(session_payload ~seed i)
                ~committed:pt.p_committed.(i) contents.(i)
            with
            | Ok () -> ()
            | Error d ->
                vs := fail ~session:i (session_path i ^ ": " ^ d) :: !vs
          done;
          !vs)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* Last capture of each distinct stable epoch: the deterministic crash
   states, deduplicated. *)
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

let mixed p =
  Array.exists (fun c -> c) p.p_committed
  && Array.exists (fun c -> not c) p.p_committed

let run ?(disk_blocks = default_disk_blocks) ?(max_points = 24)
    ?(inject_bug = false) ~sessions ~seed () : report =
  let points, committed = capture_run ~disk_blocks ~sessions ~seed in
  let rng = Sim.Rng.create (seed + 0x7e57) in
  let clean = sample_list rng max_points (distinct_epochs points) in
  let torn =
    sample_list rng (max 1 (max_points / 3)) points
    |> List.map (fun p ->
           let survive = [| 0.3; 0.6; 0.9 |].(Sim.Rng.int rng 3) in
           (p, survive, Sim.Rng.split rng))
  in
  let violations = ref [] in
  List.iter
    (fun p ->
      violations :=
        !violations
        @ replay_point ~disk_blocks ~inject_bug ~sessions ~seed p ~tear:None)
    clean;
  List.iter
    (fun (p, survive, r) ->
      violations :=
        !violations
        @ replay_point ~disk_blocks ~inject_bug ~sessions ~seed p
            ~tear:(Some (survive, r)))
    torn;
  {
    s_sessions = sessions;
    s_points_captured = List.length points;
    s_points_tested = List.length clean;
    s_torn_tested = List.length torn;
    s_points_mixed =
      List.length (List.filter mixed clean)
      + List.length (List.filter (fun (p, _, _) -> mixed p) torn);
    s_committed_at_end = Array.fold_left (fun a c -> if c then a + 1 else a) 0 committed;
    s_violations = !violations;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "server-crash: %d sessions, %d points captured, %d clean + %d torn \
     replayed (%d mid-commit), %d committed, %d violation(s)@."
    r.s_sessions r.s_points_captured r.s_points_tested r.s_torn_tested
    r.s_points_mixed r.s_committed_at_end
    (List.length r.s_violations);
  List.iter
    (fun v ->
      Format.fprintf ppf
        "  VIOLATION crash-point %d%s%s: %s@."
        v.sv_point
        (match v.sv_torn with
        | Some p -> Printf.sprintf " (torn, survive=%.1f)" p
        | None -> "")
        (if v.sv_session >= 0 then Printf.sprintf " session %d" v.sv_session
         else "")
        v.sv_detail)
    r.s_violations
