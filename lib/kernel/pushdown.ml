(** Kernel-side pushdown programs. See the interface for the model; the
    implementation notes here are about execution context.

    A walk runs in its own fiber — the stand-in for bio completion
    context: the caller submits once and blocks on an ivar; the fiber
    awaits each block read and issues the next itself. Its time is
    attributed to the "bio" profiler layer, its reads are counted in
    [pushdown_resubmits] (not the caller's crossing counters), and flow
    events stitch the submit, the chase, and the completion into the
    request's causal DAG, exactly like the device's own completion
    fibers. *)

type prog =
  | Dir_filter of { contains : string }
  | Extent_walk of { fanout_bits : int; depth : int }
  | Kv_get of { fanout_bits : int; depth : int; root : int }

type entry = {
  e_name : string;
  e_client : string;
  e_prog : prog;
  e_budget : int;
  mutable e_invocations : int;
  mutable e_aborts : int;
}

type t = {
  machine : Machine.t;
  mutable entries : entry list;
  mutable backend : (int -> Bytes.t) option;
  mutable backend_label : string;
  resubmits : Sim.Stats.Counter.t;
  invocations : Sim.Stats.Counter.t;
  aborts : Sim.Stats.Counter.t;
}

type cap = { c_client : string; mutable c_revoked : bool; c_reg : t }

let default_budget = 4096

let kind_of = function
  | Dir_filter _ -> "dir_filter"
  | Extent_walk _ -> "extent_walk"
  | Kv_get _ -> "kv_get"

(* Per-machine registry, same idiom as {!Cas}: workloads and layers reach
   the registry through the machine they already hold. *)
let key : t Machine.key = Machine.new_key ()

let table t =
  List.rev_map
    (fun e ->
      (e.e_name, e.e_client, kind_of e.e_prog, e.e_budget, e.e_invocations,
       e.e_aborts))
    t.entries

let registry machine =
  match Machine.slot machine key with
  | Some t -> t
  | None ->
      let t =
        {
          machine;
          entries = [];
          backend = None;
          backend_label = "none";
          resubmits = Machine.counter machine "pushdown_resubmits";
          invocations = Machine.counter machine "pushdown_invocations";
          aborts = Machine.counter machine "pushdown_aborts";
        }
      in
      Machine.set_slot machine key (Some t);
      Machine.register_inspector machine ~name:"pushdown" (fun () ->
          let open Util.Json in
          Obj
            [
              ("backend", String t.backend_label);
              ( "programs",
                List
                  (List.map
                     (fun (name, client, kind, budget, invs, aborts) ->
                       Obj
                         [
                           ("name", String name);
                           ("client", String client);
                           ("kind", String kind);
                           ("budget", Int budget);
                           ("invocations", Int invs);
                           ("aborts", Int aborts);
                         ])
                     (table t)) );
            ]);
      t

let grant t ~client = { c_client = client; c_revoked = false; c_reg = t }
let revoke cap = cap.c_revoked <- true

(* Registration-time validation — the stand-in for the BPF verifier: a
   program whose shape cannot terminate within its budget is rejected
   before it ever reaches a completion context. *)
let slots_per_block = 1024 (* 4096 bytes / 4-byte slots *)

let validate prog ~budget =
  if budget <= 0 then Error Errno.EINVAL
  else
    match prog with
    | Dir_filter { contains } ->
        if String.length contains = 0 then Error Errno.EINVAL else Ok ()
    | Extent_walk { fanout_bits; depth } | Kv_get { fanout_bits; depth; _ } ->
        if
          fanout_bits < 1
          || 1 lsl fanout_bits > slots_per_block
          || depth < 1 || depth > 16
        then Error Errno.EINVAL
        else Ok ()

let register t ~cap ~name ?(budget = default_budget) prog =
  if cap.c_revoked || not (cap.c_reg == t) then Error Errno.EPERM
  else
    match validate prog ~budget with
    | Error _ as e -> e
    | Ok () ->
        let e =
          {
            e_name = name;
            e_client = cap.c_client;
            e_prog = prog;
            e_budget = budget;
            e_invocations = 0;
            e_aborts = 0;
          }
        in
        t.entries <-
          e :: List.filter (fun e' -> e'.e_name <> name) t.entries;
        Ok ()

let find_entry t name = List.find_opt (fun e -> e.e_name = name) t.entries
let find t name = Option.map (fun e -> e.e_prog) (find_entry t name)

let set_backend t ~label fetch =
  t.backend <- Some fetch;
  t.backend_label <- label

let set_bcache_backend machine bc =
  set_backend (registry machine) ~label:"bcache" (fun blk ->
      let b = Bcache.bread bc blk in
      let d = Bytes.copy b.Bcache.data in
      Bcache.brelse bc b;
      d)

(* ------------------------------------------------------------------ *)
(* Index-block layout.                                                 *)

let slot_of_key ~fanout_bits ~depth ~level key =
  let shift = fanout_bits * (depth - 1 - level) in
  Int64.to_int (Int64.shift_right_logical key shift)
  land ((1 lsl fanout_bits) - 1)

let put_slot block ~slot v = Util.Bytesio.set_u32 block (slot * 4) v
let get_slot block ~slot = Util.Bytesio.get_u32 block (slot * 4)

let matches name ~contains =
  let nl = String.length name and cl = String.length contains in
  let rec at i = i + cl <= nl && (String.sub name i cl = contains || at (i + 1)) in
  cl = 0 || at 0

(* ------------------------------------------------------------------ *)
(* Execution.                                                          *)

exception Budget of entry

let step e steps =
  incr steps;
  if !steps > e.e_budget then raise (Budget e)

let abort t e =
  e.e_aborts <- e.e_aborts + 1;
  Sim.Stats.Counter.incr t.aborts;
  Sim.Trace.note ~sev:Sim.Trace.Warn (Machine.tracer t.machine) ~kind:"pushdown"
    (Printf.sprintf "%s aborted: step budget %d exhausted" e.e_name e.e_budget);
  Error Errno.ELOOP

let filter_dir t ~name ~readdir ~getattr =
  match find_entry t name with
  | None -> Error Errno.ENOENT
  | Some ({ e_prog = Dir_filter { contains }; _ } as e) -> (
      e.e_invocations <- e.e_invocations + 1;
      Sim.Stats.Counter.incr t.invocations;
      Sim.Trace.with_span (Machine.tracer t.machine) ~cat:"fs"
        "pushdown:filter_dir"
      @@ fun () ->
      match readdir () with
      | Error _ as err -> err
      | Ok ents -> (
          let steps = ref 0 in
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | (d : Vfs.dirent) :: rest ->
                step e steps;
                if matches d.Vfs.d_name ~contains then
                  match getattr d.Vfs.d_ino with
                  | Error _ as err -> err
                  | Ok st -> go ((d, st) :: acc) rest
                else go acc rest
          in
          try go [] ents with Budget _ -> abort t e))
  | Some _ -> Error Errno.EINVAL

(* The chase itself: runs inside the walker fiber under the "bio" layer.
   The first read is the one the caller submitted; every further read is
   a resubmission from completion context and counts only in
   [pushdown_resubmits]. *)
let chase t e ~fetch ~fanout_bits ~depth ~root ~key =
  let steps = ref 0 in
  let reads = ref 0 in
  let read blk =
    step e steps;
    if !reads > 0 then Sim.Stats.Counter.incr t.resubmits;
    incr reads;
    fetch blk
  in
  try
    let rec level blk l =
      if blk = 0 then Error Errno.ENOENT (* hole in the index *)
      else if l >= depth then Ok (Bytes.copy (read blk))
      else
        let b = read blk in
        level (get_slot b ~slot:(slot_of_key ~fanout_bits ~depth ~level:l key)) (l + 1)
    in
    level root 0
  with Budget _ -> abort t e

let run_walk t e ~fanout_bits ~depth ~root ~key =
  match t.backend with
  | None -> Error Errno.EIO (* no stack attached a below-syscall reader *)
  | Some fetch ->
      e.e_invocations <- e.e_invocations + 1;
      Sim.Stats.Counter.incr t.invocations;
      let machine = t.machine in
      let tr = Machine.tracer machine in
      let ivar = Sim.Sync.Ivar.create () in
      (* Same flow idiom as the device's completion fibers: an edge from
         the submitting fiber into the walker, and one back at completion,
         so the causal DAG shows submit -> chase -> completion. *)
      let submit_edge = Sim.Trace.flow_begin tr ~cat:"bio" "pushdown:walk" in
      Machine.spawn ~name:"pushdown-walk" machine (fun () ->
          Sim.Trace.flow_end tr ~cat:"bio" "pushdown:walk" submit_edge;
          let r =
            Machine.with_layer machine "bio" (fun () ->
                Sim.Trace.with_span tr ~cat:"bio" "pushdown:walk" (fun () ->
                    chase t e ~fetch ~fanout_bits ~depth ~root ~key))
          in
          let done_edge =
            Sim.Trace.flow_begin tr ~cat:"bio" "pushdown:walk:done"
          in
          Sim.Sync.Ivar.fill ivar (r, done_edge));
      let r, done_edge = Sim.Sync.Ivar.read ivar in
      Sim.Trace.flow_end tr ~cat:"bio" "pushdown:walk:done" done_edge;
      r

let walk t ~name ~root ~key =
  match find_entry t name with
  | None -> Error Errno.ENOENT
  | Some ({ e_prog = Extent_walk { fanout_bits; depth }; _ } as e) ->
      run_walk t e ~fanout_bits ~depth ~root ~key
  | Some _ -> Error Errno.EINVAL

let get t ~name ~key =
  match find_entry t name with
  | None -> Error Errno.ENOENT
  | Some ({ e_prog = Kv_get { fanout_bits; depth; root }; _ } as e) ->
      run_walk t e ~fanout_bits ~depth ~root ~key
  | Some _ -> Error Errno.EINVAL
