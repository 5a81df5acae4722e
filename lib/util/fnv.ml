(** 64-bit FNV-1a: the log checksum of the xv6 and ext4 journals and the
    content hash of the CAS store. *)

let offset_basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L

(* Loops over local refs with no closure capturing [h], so ocamlopt keeps
   the hash unboxed: one boxed [Int64] per call, not one per word. *)
let blocks (bs : Bytes.t list) =
  let h = ref offset_basis in
  let rest = ref bs in
  let more = ref true in
  while !more do
    match !rest with
    | [] -> more := false
    | b :: tl ->
        rest := tl;
        let len = Bytes.length b in
        h := Int64.mul (Int64.logxor !h (Int64.of_int len)) prime;
        let off = ref 0 in
        while !off + 8 <= len do
          h := Int64.mul (Int64.logxor !h (Bytes.get_int64_le b !off)) prime;
          off := !off + 8
        done
  done;
  !h

let bytes (b : Bytes.t) =
  let h = ref offset_basis in
  for i = 0 to Bytes.length b - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i))))
        prime
  done;
  !h
