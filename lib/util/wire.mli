(** Little-endian builders and a bounds-checked read cursor, shared by the
    two byte-level wire protocols ({!Fusesim.Proto} and the file server's
    [Server.Proto]). A decoder that runs past the end of a frame, or meets
    a length field larger than what is left of it, raises [Malformed] —
    never [Invalid_argument]. *)

exception Malformed of string

val add_u16 : Buffer.t -> int -> unit
(** The low 16 bits of the value. *)

val add_i32 : Buffer.t -> int -> unit
val add_u64 : Buffer.t -> int -> unit
val add_i64 : Buffer.t -> int64 -> unit

val add_str : Buffer.t -> string -> unit
(** u16 length, then the bytes. *)

val add_bytes : Buffer.t -> Bytes.t -> unit
(** u64 length, then the bytes. *)

type cursor

val cursor : Bytes.t -> cursor
(** A cursor at the start of a frame. *)

val remaining : cursor -> int
val get_u16 : cursor -> int
val get_i32 : cursor -> int

val get_u64 : cursor -> int
(** [Malformed] when the value does not fit a non-negative [int]. *)

val get_i64 : cursor -> int64
val get_str : cursor -> string
val get_data : cursor -> Bytes.t
