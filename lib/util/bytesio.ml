(** Little-endian fixed-width accessors over [Bytes.t], shared by the xv6
    and ext4 on-disk layouts. All bounds errors raise [Invalid_argument]
    via the underlying [Bytes] primitives. *)

let get_u8 b off = Char.code (Bytes.get b off)
let set_u8 b off v = Bytes.set b off (Char.chr (v land 0xff))

let get_u16 b off = Bytes.get_uint16_le b off
let set_u16 b off v = Bytes.set_uint16_le b off v

let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff
let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

let get_u64 b off = Bytes.get_int64_le b off
let set_u64 b off v = Bytes.set_int64_le b off v

let get_int64_as_int b off =
  let v = Bytes.get_int64_le b off in
  if Int64.compare v (Int64.of_int max_int) > 0 || Int64.compare v 0L < 0 then
    invalid_arg "Bytesio.get_int64_as_int: out of range"
  else Int64.to_int v

let set_int_as_u64 b off v =
  if v < 0 then invalid_arg "Bytesio.set_int_as_u64: negative";
  Bytes.set_int64_le b off (Int64.of_int v)

(** Fixed-width NUL-padded string field. *)
let set_string b ~off ~width s =
  let n = String.length s in
  if n > width then invalid_arg "Bytesio.set_string: too long";
  Bytes.blit_string s 0 b off n;
  Bytes.fill b (off + n) (width - n) '\000'

let get_string b ~off ~width =
  let rec len i = if i >= width || Bytes.get b (off + i) = '\000' then i else len (i + 1) in
  Bytes.sub_string b off (len 0)
