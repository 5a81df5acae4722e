(** The FUSE wire protocol (low-level API subset). Requests and replies are
    really serialised to bytes and parsed on the other side; round-trips
    are covered by property tests.

    Framing:
    - request = u16 opcode | u64 unique | payload
    - reply   = u64 unique | i32 errno (0 = ok) | u16 tag | payload *)

type attr = { ino : int; kind : int; size : int; nlink : int }
(** kind: 0 = regular, 1 = directory, 2 = symlink *)

type request =
  | Lookup of { dir : int; name : string }
  | Getattr of { ino : int }
  | Create of { dir : int; name : string }
  | Mkdir of { dir : int; name : string }
  | Unlink of { dir : int; name : string }
  | Rmdir of { dir : int; name : string }
  | Rename of { olddir : int; oldname : string; newdir : int; newname : string }
  | Link of { ino : int; dir : int; name : string }
  | Read of { ino : int; off : int; len : int }
  | Write of { ino : int; off : int; data : Bytes.t }
  | Truncate of { ino : int; size : int }
  | Fsync of { ino : int }
  | Syncfs
  | Readdir of { ino : int }
  | Open of { ino : int }
  | Release of { ino : int }
  | Statfs
  | Destroy
  | Symlink of { dir : int; name : string; target : string }
  | Readlink of { ino : int }
  | ReaddirFilter of { dir : int; prog : string }
      (** pushdown scan: filter + stat batch in ONE round trip *)
  | Bmap of { ino : int; fbn : int }  (** FIBMAP *)

type reply =
  | R_err of Kernel.Errno.t
  | R_none
  | R_attr of attr
  | R_data of Bytes.t
  | R_written of int
  | R_dirents of (string * int * int) list  (** name, ino, kind *)
  | R_statfs of { blocks : int; bfree : int; files : int; ffree : int }
  | R_target of string  (** readlink *)
  | R_dirents_plus of (string * attr) list
      (** pushdown scan result: surviving entries with their attributes *)
  | R_block of int  (** bmap result (0 = hole) *)

exception Malformed of string
(** Raised by the decoders on truncated or corrupt messages; the same
    exception as {!Util.Wire.Malformed}. *)

val opcode : request -> int
val encode_request : unique:int -> request -> Bytes.t
val decode_request : Bytes.t -> int * request
val encode_reply : unique:int -> reply -> Bytes.t
val decode_reply : Bytes.t -> int * reply
