(** The file-server wire protocol (NFS/9p-flavoured).

    Requests and server messages really are serialised to bytes and parsed
    back on the other side — the copies are what the wire crossing charges
    for, and the round trip is covered by property tests. Unlike the FUSE
    protocol, the decoders here are total: a truncated or corrupted frame
    comes back as [Error reason], never as an exception, because a server
    must survive garbage from a client.

    Framing:

      request = u16 opcode | u64 xid | payload
      smsg    = u16 mtag   | body
        mtag 1 (reply):  u64 xid | i32 errno (0 = ok) | u16 tag | payload
        mtag 2 (recall): u64 ino

    A recall is the server-initiated callback of NFSv4 delegations: it
    shares the reply channel but carries no xid — the client answers with a
    [Lease_return] request once it has flushed and dropped its cache. *)

type attr = { ino : int; kind : int; size : int; nlink : int; change : int }
(** kind: 0 = regular, 1 = directory, 2 = symlink. [change] is the server's
    change attribute, bumped on every data mutation — the client's cache
    validation handle (NFSv4 "change"). *)

type lease = L_none | L_read | L_write

type request =
  | Attach of { tenant : string }  (** session hello; binds the QoS class *)
  | Lookup of { dir : int; name : string }
  | Getattr of { ino : int }
  | Open of { ino : int; write : bool }
  | Create of { dir : int; name : string; write : bool }
  | Mkdir of { dir : int; name : string }
  | Unlink of { dir : int; name : string }
  | Read of { ino : int; off : int; len : int }
  | Write of { ino : int; off : int; data : Bytes.t; stable : bool }
  | Commit of { ino : int }
  | Readdir of { ino : int }
  | Release of { ino : int }
  | Lease_return of { ino : int }  (** recall ack: lease dropped *)
  | Readdir_filter of { dir : int; prog : string }
      (** pushdown scan: filter + stat batch in ONE round trip *)
  | Pushdown_get of { prog : string; key : int64 }
      (** device-side get(key): the server resolves the whole lookup below
          its syscall layer *)
  | Detach

type reply =
  | R_err of Kernel.Errno.t
  | R_ok
  | R_attr of attr
  | R_open of { oattr : attr; olease : lease }
  | R_read of { rdata : Bytes.t; rattr : attr }
  | R_write of { count : int; wattr : attr }
  | R_dirents of (string * int * int) list  (** name, ino, kind *)
  | R_dirents_plus of (string * attr) list
      (** pushdown scan result: surviving entries with attributes *)
  | R_value of Bytes.t  (** pushdown get result *)

type smsg = Reply of { xid : int; reply : reply } | Recall of { ino : int }

let opcode = function
  | Attach _ -> 1
  | Lookup _ -> 2
  | Getattr _ -> 3
  | Open _ -> 4
  | Create _ -> 5
  | Mkdir _ -> 6
  | Unlink _ -> 7
  | Read _ -> 8
  | Write _ -> 9
  | Commit _ -> 10
  | Readdir _ -> 11
  | Release _ -> 12
  | Lease_return _ -> 13
  | Detach -> 14
  | Readdir_filter _ -> 15
  | Pushdown_get _ -> 16

(** Human-readable op name, for flight-recorder notes and trace labels. *)
let request_name = function
  | Attach _ -> "attach"
  | Lookup _ -> "lookup"
  | Getattr _ -> "getattr"
  | Open _ -> "open"
  | Create _ -> "create"
  | Mkdir _ -> "mkdir"
  | Unlink _ -> "unlink"
  | Read _ -> "read"
  | Write _ -> "write"
  | Commit _ -> "commit"
  | Readdir _ -> "readdir"
  | Release _ -> "release"
  | Lease_return _ -> "lease_return"
  | Readdir_filter _ -> "readdir_filter"
  | Pushdown_get _ -> "pushdown_get"
  | Detach -> "detach"

(* The shared codec; its [Malformed] stays internal, because the public
   decoders catch it and return [Error _]. *)
open Util.Wire

let add_bool b v = add_u16 b (if v then 1 else 0)
let get_bool c = get_u16 c <> 0

(* --- requests ------------------------------------------------------ *)

let encode_request ~xid (r : request) : Bytes.t =
  let b = Buffer.create 64 in
  add_u16 b (opcode r);
  add_u64 b xid;
  (match r with
  | Attach { tenant } -> add_str b tenant
  | Lookup { dir; name } | Mkdir { dir; name } | Unlink { dir; name } ->
      add_u64 b dir;
      add_str b name
  | Getattr { ino }
  | Commit { ino }
  | Readdir { ino }
  | Release { ino }
  | Lease_return { ino } ->
      add_u64 b ino
  | Open { ino; write } ->
      add_u64 b ino;
      add_bool b write
  | Create { dir; name; write } ->
      add_u64 b dir;
      add_str b name;
      add_bool b write
  | Read { ino; off; len } ->
      add_u64 b ino;
      add_u64 b off;
      add_u64 b len
  | Write { ino; off; data; stable } ->
      add_u64 b ino;
      add_u64 b off;
      add_bool b stable;
      add_bytes b data
  | Readdir_filter { dir; prog } ->
      add_u64 b dir;
      add_str b prog
  | Pushdown_get { prog; key } ->
      add_str b prog;
      add_i64 b key
  | Detach -> ());
  Buffer.to_bytes b

let decode_request_exn (m : Bytes.t) : int * request =
  let c = cursor m in
  let op = get_u16 c in
  let xid = get_u64 c in
  let req =
    match op with
    | 1 -> Attach { tenant = get_str c }
    | 2 ->
        let dir = get_u64 c in
        Lookup { dir; name = get_str c }
    | 3 -> Getattr { ino = get_u64 c }
    | 4 ->
        let ino = get_u64 c in
        Open { ino; write = get_bool c }
    | 5 ->
        let dir = get_u64 c in
        let name = get_str c in
        Create { dir; name; write = get_bool c }
    | 6 ->
        let dir = get_u64 c in
        Mkdir { dir; name = get_str c }
    | 7 ->
        let dir = get_u64 c in
        Unlink { dir; name = get_str c }
    | 8 ->
        let ino = get_u64 c in
        let off = get_u64 c in
        Read { ino; off; len = get_u64 c }
    | 9 ->
        let ino = get_u64 c in
        let off = get_u64 c in
        let stable = get_bool c in
        Write { ino; off; data = get_data c; stable }
    | 10 -> Commit { ino = get_u64 c }
    | 11 -> Readdir { ino = get_u64 c }
    | 12 -> Release { ino = get_u64 c }
    | 13 -> Lease_return { ino = get_u64 c }
    | 14 -> Detach
    | 15 ->
        let dir = get_u64 c in
        Readdir_filter { dir; prog = get_str c }
    | 16 ->
        let prog = get_str c in
        Pushdown_get { prog; key = get_i64 c }
    | n -> raise (Malformed (Printf.sprintf "bad opcode %d" n))
  in
  (xid, req)

let decode_request (m : Bytes.t) : (int * request, string) result =
  match decode_request_exn m with
  | v -> Ok v
  | exception Malformed why -> Error why

(* --- server messages ----------------------------------------------- *)

let add_attr b (a : attr) =
  add_u64 b a.ino;
  add_u16 b a.kind;
  add_u64 b a.size;
  add_u64 b a.nlink;
  add_u64 b a.change

let get_attr c =
  let ino = get_u64 c in
  let kind = get_u16 c in
  let size = get_u64 c in
  let nlink = get_u64 c in
  let change = get_u64 c in
  { ino; kind; size; nlink; change }

let lease_code = function L_none -> 0 | L_read -> 1 | L_write -> 2

let lease_of_code = function
  | 0 -> L_none
  | 1 -> L_read
  | 2 -> L_write
  | n -> raise (Malformed (Printf.sprintf "bad lease code %d" n))

let encode_smsg (m : smsg) : Bytes.t =
  let b = Buffer.create 64 in
  (match m with
  | Recall { ino } ->
      add_u16 b 2;
      add_u64 b ino
  | Reply { xid; reply } ->
      add_u16 b 1;
      add_u64 b xid;
      let err, tag =
        match reply with
        | R_err e -> (Kernel.Errno.to_code e, 0)
        | R_ok -> (0, 1)
        | R_attr _ -> (0, 2)
        | R_open _ -> (0, 3)
        | R_read _ -> (0, 4)
        | R_write _ -> (0, 5)
        | R_dirents _ -> (0, 6)
        | R_dirents_plus _ -> (0, 7)
        | R_value _ -> (0, 8)
      in
      add_i32 b err;
      add_u16 b tag;
      (match reply with
      | R_err _ | R_ok -> ()
      | R_attr a -> add_attr b a
      | R_open { oattr; olease } ->
          add_attr b oattr;
          add_u16 b (lease_code olease)
      | R_read { rdata; rattr } ->
          add_attr b rattr;
          add_bytes b rdata
      | R_write { count; wattr } ->
          add_u64 b count;
          add_attr b wattr
      | R_dirents des ->
          add_u64 b (List.length des);
          List.iter
            (fun (name, ino, kind) ->
              add_str b name;
              add_u64 b ino;
              add_u16 b kind)
            des
      | R_dirents_plus des ->
          add_u64 b (List.length des);
          List.iter
            (fun (name, a) ->
              add_str b name;
              add_attr b a)
            des
      | R_value d -> add_bytes b d));
  Buffer.to_bytes b

let decode_smsg_exn (m : Bytes.t) : smsg =
  let c = cursor m in
  match get_u16 c with
  | 2 -> Recall { ino = get_u64 c }
  | 1 ->
      let xid = get_u64 c in
      let err = get_i32 c in
      let tag = get_u16 c in
      let reply =
        if err <> 0 then
          match Kernel.Errno.of_code err with
          | Some e -> R_err e
          | None -> R_err Kernel.Errno.EIO
        else
          match tag with
          | 1 -> R_ok
          | 2 -> R_attr (get_attr c)
          | 3 ->
              let oattr = get_attr c in
              R_open { oattr; olease = lease_of_code (get_u16 c) }
          | 4 ->
              let rattr = get_attr c in
              R_read { rdata = get_data c; rattr }
          | 5 ->
              let count = get_u64 c in
              R_write { count; wattr = get_attr c }
          | 6 ->
              let n = get_u64 c in
              if n > remaining c then raise (Malformed "dirent count");
              R_dirents
                (List.init n (fun _ ->
                     let name = get_str c in
                     let ino = get_u64 c in
                     let kind = get_u16 c in
                     (name, ino, kind)))
          | 7 ->
              let n = get_u64 c in
              if n > remaining c then raise (Malformed "dirent count");
              R_dirents_plus
                (List.init n (fun _ ->
                     let name = get_str c in
                     (name, get_attr c)))
          | 8 -> R_value (get_data c)
          | n -> raise (Malformed (Printf.sprintf "bad reply tag %d" n))
      in
      Reply { xid; reply }
  | n -> raise (Malformed (Printf.sprintf "bad message tag %d" n))

let decode_smsg (m : Bytes.t) : (smsg, string) result =
  match decode_smsg_exn m with
  | v -> Ok v
  | exception Malformed why -> Error why
