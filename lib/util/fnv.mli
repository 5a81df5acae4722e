(** 64-bit FNV-1a hashing. *)

val blocks : Bytes.t list -> int64
(** FNV-1a over each block in order: first the block's length, then every
    whole little-endian 64-bit word of it (a trailing partial word is not
    hashed). This is the on-disk log checksum of both journals, so its
    values must never change: recovery rejects a log whose stored
    checksum does not match. *)

val bytes : Bytes.t -> int64
(** Textbook FNV-1a over every byte: the content hash and superblock
    checksum of the CAS store ({!Kernel.Cas}), equally part of its on-disk
    format. *)
