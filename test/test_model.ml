(** Model-based and differential testing: random operation sequences are
    applied simultaneously to an in-memory reference model and to real
    mounts; afterwards the visible tree must match the model exactly — and
    all four stacks (Bento, C-VFS, FUSE, ext4) must agree with each other,
    since they implement the same POSIX-ish contract. *)

open Helpers

let tc = Alcotest.test_case

(* The operation universe: a few file and directory names in a two-level
   namespace, with sizes spanning hole/indirect boundaries. *)
type mop =
  | Write_file of int * int * int  (** name idx, seed, size *)
  | Append of int * int * int
  | Unlink of int
  | Rename of int * int
  | Mkdir of int
  | Rmdir of int
  | Truncate of int * int
  | Symlink of int * int  (** target idx, link name idx *)

let nfiles = 8
let ndirs = 3

let file_name i = Printf.sprintf "/f%d" (i mod nfiles)
let dir_name i = Printf.sprintf "/d%d" (i mod ndirs)

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (5, map3 (fun a b c -> Write_file (a, b, c)) (int_bound 20) (int_bound 1000)
               (int_range 0 40_000));
        (3, map3 (fun a b c -> Append (a, b, c)) (int_bound 20) (int_bound 1000)
               (int_range 1 8_000));
        (3, map (fun a -> Unlink a) (int_bound 20));
        (2, map2 (fun a b -> Rename (a, b)) (int_bound 20) (int_bound 20));
        (1, map (fun a -> Mkdir a) (int_bound 10));
        (1, map (fun a -> Rmdir a) (int_bound 10));
        (2, map2 (fun a b -> Truncate (a, b)) (int_bound 20) (int_range 0 20_000));
        (1, map2 (fun a b -> Symlink (a, b)) (int_bound 20) (int_bound 20));
      ])

(* Reference model: path -> contents for files, path -> target for links. *)
type model = {
  files : (string, Bytes.t) Hashtbl.t;
  links : (string, string) Hashtbl.t;
  dirs : (string, unit) Hashtbl.t;
}

let model_create () =
  { files = Hashtbl.create 16; links = Hashtbl.create 8; dirs = Hashtbl.create 4 }

let payload_for seed size = payload ~seed size

(* Apply one op to both the model and the mount; semantic rules mirror the
   syscall layer: errors are allowed, but both sides must agree on the
   effect. Writing through a symlink writes its target. *)
let apply os (m : model) op =
  (* writing through a symlink affects its (transitively resolved) target *)
  let rec resolve_name ?(depth = 0) n =
    if depth > 8 then n
    else
      match Hashtbl.find_opt m.links n with
      | Some t -> resolve_name ~depth:(depth + 1) t
      | None -> n
  in
  match op with
  | Write_file (i, seed, size) ->
      let name = resolve_name (file_name i) in
      let data = payload_for seed size in
      (match Kernel.Os.write_file os (file_name i) data with
      | Ok () ->
          (* write_file follows links: the resolved target gets the data,
             the link itself is untouched *)
          Hashtbl.replace m.files name data
      | Error _ -> ())
  | Append (i, seed, size) -> (
      let name = file_name i in
      match Kernel.Os.open_ os name Kernel.Os.(appendf wronly) with
      | Error _ -> ()
      | Ok fd ->
          let data = payload_for seed size in
          (match Kernel.Os.write os fd data with
          | Ok _ ->
              let target = resolve_name name in
              let old =
                Option.value ~default:Bytes.empty (Hashtbl.find_opt m.files target)
              in
              Hashtbl.replace m.files target (Bytes.cat old data)
          | Error _ -> ());
          ok (Kernel.Os.close os fd))
  | Unlink i -> (
      let name = file_name i in
      match Kernel.Os.unlink os name with
      | Ok () ->
          if Hashtbl.mem m.links name then Hashtbl.remove m.links name
          else Hashtbl.remove m.files name
      | Error _ -> ())
  | Rename (a, b) -> (
      let from_ = file_name a and to_ = file_name b in
      match Kernel.Os.rename os from_ to_ with
      | Ok () ->
          if from_ <> to_ then begin
            (match Hashtbl.find_opt m.files from_ with
            | Some d ->
                Hashtbl.remove m.files from_;
                Hashtbl.remove m.links to_;
                Hashtbl.replace m.files to_ d
            | None -> (
                match Hashtbl.find_opt m.links from_ with
                | Some t ->
                    Hashtbl.remove m.links from_;
                    Hashtbl.remove m.files to_;
                    Hashtbl.replace m.links to_ t
                | None -> ()))
          end
      | Error _ -> ())
  | Mkdir i -> (
      match Kernel.Os.mkdir os (dir_name i) with
      | Ok () -> Hashtbl.replace m.dirs (dir_name i) ()
      | Error _ -> ())
  | Rmdir i -> (
      match Kernel.Os.rmdir os (dir_name i) with
      | Ok () -> Hashtbl.remove m.dirs (dir_name i)
      | Error _ -> ())
  | Truncate (i, size) -> (
      let name = file_name i in
      match Kernel.Os.open_ os name Kernel.Os.rdwr with
      | Error _ -> ()
      | Ok fd ->
          (match Kernel.Os.ftruncate os fd size with
          | Ok () ->
              let target = resolve_name name in
              let old =
                Option.value ~default:Bytes.empty (Hashtbl.find_opt m.files target)
              in
              let data =
                if size <= Bytes.length old then Bytes.sub old 0 size
                else Bytes.cat old (Bytes.make (size - Bytes.length old) '\000')
              in
              Hashtbl.replace m.files target data
          | Error _ -> ());
          ok (Kernel.Os.close os fd))
  | Symlink (t, l) -> (
      let target = file_name t and linkname = file_name l in
      match Kernel.Os.symlink os target linkname with
      | Ok () -> Hashtbl.replace m.links linkname target
      | Error _ -> ())

(* Compare the mount's root against the model. *)
let check_against_model os (m : model) label =
  (* every model file reads back exactly *)
  Hashtbl.iter
    (fun path data ->
      match Kernel.Os.read_file os path with
      | Ok got ->
          if not (Bytes.equal got data) then
            Alcotest.failf "%s: %s content mismatch (%d vs %d bytes)" label path
              (Bytes.length got) (Bytes.length data)
      | Error e ->
          Alcotest.failf "%s: %s missing (%s)" label path
            (Kernel.Errno.to_string e))
    m.files;
  Hashtbl.iter
    (fun path target ->
      match Kernel.Os.readlink os path with
      | Ok t ->
          if t <> target then Alcotest.failf "%s: %s link target" label path
      | Error e ->
          Alcotest.failf "%s: link %s missing (%s)" label path
            (Kernel.Errno.to_string e))
    m.links;
  (* and no extra entries exist *)
  let entries = ok (Kernel.Os.readdir os "/") in
  List.iter
    (fun d ->
      let n = "/" ^ d.Kernel.Vfs.d_name in
      if d.Kernel.Vfs.d_name <> "." && d.Kernel.Vfs.d_name <> ".." then
        if
          (not (Hashtbl.mem m.files n))
          && (not (Hashtbl.mem m.links n))
          && not (Hashtbl.mem m.dirs n)
        then Alcotest.failf "%s: unexpected entry %s" label n)
    entries

let run_sequence_on label k ops =
  with_stack ~disk_blocks:65536 k (fun os ->
      let m = model_create () in
      List.iter (fun op -> apply os m op) ops;
      check_against_model os m label)

let gen_ops = QCheck.Gen.(list_size (int_range 20 60) gen_op)

let show_op = function
  | Write_file (a, b, c) -> Printf.sprintf "Write_file(%d,%d,%d)" a b c
  | Append (a, b, c) -> Printf.sprintf "Append(%d,%d,%d)" a b c
  | Unlink a -> Printf.sprintf "Unlink(%d)" a
  | Rename (a, b) -> Printf.sprintf "Rename(%d,%d)" a b
  | Mkdir a -> Printf.sprintf "Mkdir(%d)" a
  | Rmdir a -> Printf.sprintf "Rmdir(%d)" a
  | Truncate (a, b) -> Printf.sprintf "Truncate(%d,%d)" a b
  | Symlink (a, b) -> Printf.sprintf "Symlink(%d,%d)" a b

let show_ops ops = String.concat "; " (List.map show_op ops)

let prop_model name k count =
  QCheck.Test.make ~count ~name (QCheck.make ~print:show_ops gen_ops) (fun ops ->
      run_sequence_on name k ops;
      true)

let suite =
  [
    QCheck_alcotest.to_alcotest (prop_model "model: bento xv6" Stacks.Bento 20);
    QCheck_alcotest.to_alcotest (prop_model "model: c-kernel xv6" Stacks.Ckernel 10);
    QCheck_alcotest.to_alcotest (prop_model "model: fuse xv6" Stacks.Fuse 5);
    QCheck_alcotest.to_alcotest (prop_model "model: ext4" Stacks.Ext4 10);
    tc "fixed regression sequence" `Quick (fun () ->
        (* a hand-picked sequence covering rename-over-link + truncate *)
        let ops =
          [
            Write_file (0, 1, 10_000);
            Symlink (0, 1);
            Append (1, 2, 500);
            Rename (1, 2);
            Truncate (0, 3_000);
            Write_file (3, 4, 0);
            Unlink (0);
            Mkdir 0;
            Rmdir 0;
          ]
        in
        run_sequence_on "fixed" Stacks.Bento ops);
  ]
