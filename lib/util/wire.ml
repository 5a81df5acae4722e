(** Builders and the read cursor of the FUSE and file-server wire
    protocols. *)

exception Malformed of string

let add_u16 b v =
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff))

let add_i32 b v = Buffer.add_int32_le b (Int32.of_int v)
let add_u64 b v = Buffer.add_int64_le b (Int64.of_int v)
let add_i64 = Buffer.add_int64_le

let add_str b s =
  add_u16 b (String.length s);
  Buffer.add_string b s

let add_bytes b d =
  add_u64 b (Bytes.length d);
  Buffer.add_bytes b d

type cursor = { buf : Bytes.t; mutable pos : int }

let cursor buf = { buf; pos = 0 }
let remaining c = Bytes.length c.buf - c.pos

(* Compare against what is left, never [pos + n]: a length field near
   [max_int] would overflow the sum and pass the check. *)
let need c n =
  if n < 0 || n > remaining c then raise (Malformed "short message")

let get_u16 c =
  need c 2;
  let v = Bytes.get_uint16_le c.buf c.pos in
  c.pos <- c.pos + 2;
  v

let get_i32 c =
  need c 4;
  let v = Int32.to_int (Bytes.get_int32_le c.buf c.pos) in
  c.pos <- c.pos + 4;
  v

let get_i64 c =
  need c 8;
  let v = Bytes.get_int64_le c.buf c.pos in
  c.pos <- c.pos + 8;
  v

let get_u64 c =
  let v = get_i64 c in
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
    raise (Malformed "u64 out of range");
  Int64.to_int v

let get_str c =
  let n = get_u16 c in
  need c n;
  let s = Bytes.sub_string c.buf c.pos n in
  c.pos <- c.pos + n;
  s

let get_data c =
  let n = get_u64 c in
  need c n;
  let d = Bytes.sub c.buf c.pos n in
  c.pos <- c.pos + n;
  d
