(** Little-endian fixed-width accessors over [Bytes.t], shared by the xv6
    and ext4 on-disk layouts (the wire protocols use {!Wire}). Bounds
    errors raise [Invalid_argument]. *)

val get_u8 : Bytes.t -> int -> int
val set_u8 : Bytes.t -> int -> int -> unit
val get_u16 : Bytes.t -> int -> int
val set_u16 : Bytes.t -> int -> int -> unit
val get_u32 : Bytes.t -> int -> int
val set_u32 : Bytes.t -> int -> int -> unit
val get_u64 : Bytes.t -> int -> int64
val set_u64 : Bytes.t -> int -> int64 -> unit

val get_int64_as_int : Bytes.t -> int -> int
(** Raises [Invalid_argument] when the stored value does not fit a
    non-negative OCaml [int]. *)

val set_int_as_u64 : Bytes.t -> int -> int -> unit

val set_string : Bytes.t -> off:int -> width:int -> string -> unit
(** NUL-padded fixed-width field; raises if the string is wider. *)

val get_string : Bytes.t -> off:int -> width:int -> string
