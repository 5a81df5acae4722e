(** Kernel-side pushdown: validated client functions executed inside a
    lower layer ("BPF for storage", PAPERS.md). A client holding a
    capability registers a small program; lower layers then invoke it in
    place of a round-trip to the caller — a directory scan filters and
    batches attributes inside the fs layer, and an index walk resubmits
    follow-on reads from bio completion context, so a point lookup costs
    one layer crossing instead of depth-many.

    Safety model: registration is gated by an unforgeable capability
    ([grant]/[revoke]); every program carries a step budget, checked
    before each step, so a runaway program is aborted cleanly ([ELOOP])
    without wedging the completion fiber that hosts it. *)

type t
(** A machine's pushdown registry. *)

(** The validated program forms lower layers know how to run. *)
type prog =
  | Dir_filter of { contains : string }
      (** fs-layer readdir filter + stat batch: return only entries whose
          name contains the pattern, each with its attributes. *)
  | Extent_walk of { fanout_bits : int; depth : int }
      (** bio-layer index-block chase: [depth] levels of radix-index
          blocks ([2^fanout_bits] slots each) ending at a value block,
          resubmitted from completion context. *)
  | Kv_get of { fanout_bits : int; depth : int; root : int }
      (** device-side get(key): an [Extent_walk] whose index root was
          bound at registration, so the lookup resolves entirely below
          the syscall layer. *)

type cap
(** Unforgeable client capability; required to register programs. *)

val registry : Machine.t -> t
(** The machine's registry (created on first use; registers a live
    [pushdown] inspector table for [bento_cli inspect]). *)

val grant : t -> client:string -> cap
val revoke : cap -> unit

val register :
  t -> cap:cap -> name:string -> ?budget:int -> prog -> (unit, Errno.t) result
(** Validate and install a program under [name]. [EPERM] when the
    capability is revoked or belongs to another machine's registry;
    [EINVAL] when the program's parameters fail validation. Re-registering
    a name replaces the program. Default budget: 4096 steps. *)

val find : t -> string -> prog option

val set_backend : t -> label:string -> (int -> Bytes.t) -> unit
(** How walk programs read a device block from below the syscall layer.
    The mounting stack attaches it: the kernel runtime reads through the
    buffer cache (sharding + admission respected), the FUSE runtime reads
    the shared device directly — either way, no caller crossing. *)

val set_bcache_backend : Machine.t -> Bcache.t -> unit
(** Attach the kernel runtime's backend: walks read through the given
    buffer cache (the one the mounted fs uses), so sharding and admission
    apply exactly as for fs reads. *)

val table : t -> (string * string * string * int * int * int) list
(** Registered programs: (name, client, kind, budget, invocations,
    aborts) — the inspector's rows. *)

(* ------------------------------------------------------------------ *)
(* Index-block layout shared by builders (bench, tests) and the walker:
   each index block holds [2^fanout_bits] big-endian u32 slots naming the
   next level's device block (0 = hole). *)

val slot_of_key : fanout_bits:int -> depth:int -> level:int -> int64 -> int
val put_slot : Bytes.t -> slot:int -> int -> unit
val get_slot : Bytes.t -> slot:int -> int

val matches : string -> contains:string -> bool
(** The [Dir_filter] predicate, exported so the plain multi-call path and
    the equivalence tests apply exactly the same test. *)

(* ------------------------------------------------------------------ *)
(* Invocation — called from below the crossing. *)

val filter_dir :
  t ->
  name:string ->
  readdir:(unit -> (Vfs.dirent list, Errno.t) result) ->
  getattr:(int -> (Vfs.stat, Errno.t) result) ->
  ((Vfs.dirent * Vfs.stat) list, Errno.t) result
(** Run [Dir_filter name] against a directory: one readdir, then the
    filter and per-entry getattr all inside the hosting layer. [ENOENT]
    when no such program, [EINVAL] when [name] is not a filter, [ELOOP]
    when the scan exceeds the program's step budget. *)

val walk :
  t -> name:string -> root:int -> key:int64 -> (Bytes.t, Errno.t) result
(** Run [Extent_walk name] from index root block [root]: a completion
    fiber chases the index levels, issuing each follow-on read itself
    (counted in the machine's [pushdown_resubmits], never as caller
    crossings), and returns the value block. [ENOENT] for an unregistered
    program or a hole in the index, [ELOOP] on budget exhaustion — the
    hosting fiber survives and holds no buffers either way. *)

val get : t -> name:string -> key:int64 -> (Bytes.t, Errno.t) result
(** Run [Kv_get name]: [walk] from the root bound at registration. *)
