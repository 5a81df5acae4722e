(** Tests of the span tracer: event capture, the bounded ring, Chrome
    trace-event export (validated with a small in-test JSON reader), and
    the no-perturbation guarantee — tracing must never move virtual time. *)

open Helpers

let tc = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* A minimal JSON reader, enough to validate the exporter's output.     *)

type json =
  | JNull
  | JBool of bool
  | JNum of float
  | JStr of string
  | JArr of json list
  | JObj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\255' in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if peek () <> c then fail (Printf.sprintf "expected %c" c);
    advance ()
  in
  let parse_lit lit v =
    String.iter (fun c -> expect c) lit;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              (* \uXXXX: decode to a raw byte for the BMP-ASCII escapes the
                 exporter emits (control characters) *)
              let hex = String.sub s (!pos + 1) 4 in
              pos := !pos + 4;
              Buffer.add_char buf (Char.chr (int_of_string ("0x" ^ hex) land 0xff))
          | _ -> fail "bad escape");
          advance ();
          go ()
      | '\255' -> fail "unterminated string"
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      advance ()
    done;
    if !pos = start then fail "expected number";
    JNum (float_of_string (String.sub s start (!pos - start)))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | 'n' -> parse_lit "null" JNull
    | 't' -> parse_lit "true" (JBool true)
    | 'f' -> parse_lit "false" (JBool false)
    | '"' -> JStr (parse_string ())
    | '0' .. '9' | '-' -> parse_number ()
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          JArr []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          JArr (List.rev !items)
        end
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          JObj []
        end
        else begin
          let member () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let items = ref [ member () ] in
          skip_ws ();
          while peek () = ',' do
            advance ();
            items := member () :: !items;
            skip_ws ()
          done;
          expect '}';
          JObj (List.rev !items)
        end
    | _ -> fail "unexpected character"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let field name = function
  | JObj kvs -> ( match List.assoc_opt name kvs with Some v -> v | None -> JNull)
  | _ -> JNull

let str = function JStr s -> s | _ -> Alcotest.fail "expected string"
let num = function JNum f -> f | _ -> Alcotest.fail "expected number"

(* ------------------------------------------------------------------ *)

let test_span_capture () =
  let e = Sim.Engine.create () in
  let tr = Sim.Trace.create e in
  Alcotest.(check bool) "disabled by default" false (Sim.Trace.enabled tr);
  Sim.Trace.set_enabled tr true;
  ignore
    (Sim.Engine.spawn ~name:"worker" e (fun () ->
         Sim.Trace.span_begin tr ~cat:"test" "outer";
         Sim.Engine.sleep 100L;
         Sim.Trace.instant tr ~cat:"test" "tick";
         Sim.Engine.sleep 50L;
         Sim.Trace.span_end tr ~cat:"test" "outer"));
  Sim.Engine.run e;
  match Sim.Trace.events tr with
  | [ b; i; en ] ->
      Alcotest.(check string) "begin name" "outer" b.Sim.Trace.name;
      Alcotest.(check int64) "begin ts" 0L b.Sim.Trace.ts;
      Alcotest.(check string) "instant name" "tick" i.Sim.Trace.name;
      Alcotest.(check int64) "instant ts" 100L i.Sim.Trace.ts;
      Alcotest.(check int64) "end ts" 150L en.Sim.Trace.ts;
      Alcotest.(check bool) "fiber tid stamped" true (b.Sim.Trace.tid >= 0);
      Alcotest.(check int) "same fiber" b.Sim.Trace.tid en.Sim.Trace.tid
  | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs)

let test_ring_bounded () =
  let e = Sim.Engine.create () in
  let tr = Sim.Trace.create ~capacity:8 e in
  Sim.Trace.set_enabled tr true;
  for i = 1 to 20 do
    Sim.Trace.instant tr (Printf.sprintf "ev%d" i)
  done;
  Alcotest.(check int) "length capped" 8 (Sim.Trace.length tr);
  Alcotest.(check int) "dropped counted" 12 (Sim.Trace.dropped tr);
  (match Sim.Trace.events tr with
  | first :: _ ->
      Alcotest.(check string) "oldest retained is ev13" "ev13"
        first.Sim.Trace.name
  | [] -> Alcotest.fail "no events");
  Sim.Trace.clear tr;
  Alcotest.(check int) "clear empties" 0 (Sim.Trace.length tr)

(* Run a real stack under the tracer and validate the Chrome export. *)
let test_chrome_json_wellformed () =
  let machine = Kernel.Machine.create ~disk_blocks:4096 ~block_size:4096 () in
  Sim.Trace.set_capacity (Kernel.Machine.tracer machine) (1 lsl 16);
  Sim.Trace.set_enabled (Kernel.Machine.tracer machine) true;
  Kernel.Machine.spawn ~name:"test" machine (fun () ->
      ok (Bento.Bentofs.mkfs machine xv6_maker);
      let vfs, handle =
        ok (Bento.Bentofs.mount ~background:false machine xv6_maker)
      in
      let os = Kernel.Os.create vfs in
      ok (Kernel.Os.mkdir os "/d");
      ok (Kernel.Os.write_file os "/d/f \"quoted\"" (Bytes.make 9000 'x'));
      ignore (ok (Kernel.Os.read_file os "/d/f \"quoted\""));
      ok (Kernel.Os.sync os);
      Bento.Bentofs.unmount vfs handle);
  Kernel.Machine.run machine;
  let tr = Kernel.Machine.tracer machine in
  Alcotest.(check bool) "captured something" true (Sim.Trace.length tr > 0);
  let doc = Sim.Trace.to_chrome_json ~pid:7 ~process_name:"run:test" tr in
  let arr =
    match parse_json doc with
    | JArr items -> items
    | _ -> Alcotest.fail "top level must be an array"
  in
  Alcotest.(check int)
    "one element per event plus process_name metadata"
    (Sim.Trace.length tr + 1) (List.length arr);
  let seen_meta = ref false in
  let last_ts = ref neg_infinity in
  let cats = Hashtbl.create 8 in
  let syscall_notes = ref 0 in
  List.iter
    (fun ev ->
      match str (field "ph" ev) with
      | "M" ->
          seen_meta := true;
          Alcotest.(check string) "metadata kind" "process_name"
            (str (field "name" ev));
          Alcotest.(check string) "process name" "run:test"
            (str (field "name" (field "args" ev)))
      | ph ->
          if not (List.mem ph [ "B"; "E"; "i"; "C"; "s"; "f" ]) then
            Alcotest.failf "unknown phase %s" ph;
          Alcotest.(check bool) "pid" true (num (field "pid" ev) = 7.0);
          ignore (str (field "name" ev));
          Hashtbl.replace cats (str (field "cat" ev)) ();
          let ts = num (field "ts" ev) in
          if ts < !last_ts then
            Alcotest.failf "timestamps regress: %f after %f" ts !last_ts;
          last_ts := ts;
          if ph = "i" then
            Alcotest.(check string) "instant scope" "t" (str (field "s" ev));
          (* notes are instants tagged with their severity *)
          if ph = "i" && str (field "cat" ev) = "syscall" then begin
            ignore (str (field "sev" (field "args" ev)));
            incr syscall_notes
          end;
          (* flow events must carry the stitching edge id; finishes bind
             to the enclosing slice's end *)
          if ph = "s" || ph = "f" then
            Alcotest.(check bool)
              "flow edge id positive" true
              (num (field "id" ev) > 0.);
          if ph = "f" then
            Alcotest.(check string) "flow binding point" "e"
              (str (field "bp" ev)))
    arr;
  Alcotest.(check bool) "metadata present" true !seen_meta;
  Alcotest.(check bool) "syscall notes exported" true (!syscall_notes > 0);
  (* the stack actually crossed its layers *)
  List.iter
    (fun cat ->
      if not (Hashtbl.mem cats cat) then Alcotest.failf "no %s events" cat)
    [ "syscall"; "vfs"; "bcache"; "device"; "bento" ]

(* Timestamps are virtual ns exported as microseconds with a fractional
   part; make sure nothing is lost on the way out. *)
let test_chrome_ts_precision () =
  let e = Sim.Engine.create () in
  let tr = Sim.Trace.create e in
  Sim.Trace.set_enabled tr true;
  ignore
    (Sim.Engine.spawn e (fun () ->
         Sim.Engine.sleep 1_234_567L;
         Sim.Trace.instant tr "mark"));
  Sim.Engine.run e;
  match parse_json (Sim.Trace.to_chrome_json tr) with
  | JArr evs -> (
      let mark =
        List.find (fun ev -> str (field "ph" ev) = "i") evs
      in
      match field "ts" mark with
      | JNum f -> Alcotest.(check (float 1e-9)) "1234.567 us" 1234.567 f
      | _ -> Alcotest.fail "ts missing")
  | _ -> Alcotest.fail "bad document"

(* The no-overhead guarantee: the same workload, traced and untraced,
   reaches the identical virtual end time and the identical result, and
   records the identical always-on notes. *)
let run_workload ~traced () =
  let machine = Kernel.Machine.create ~disk_blocks:8192 ~block_size:4096 () in
  let tr = Kernel.Machine.tracer machine in
  Sim.Trace.set_capacity tr (1 lsl 16);
  if traced then Sim.Trace.set_enabled tr true;
  let ops = ref 0 in
  Kernel.Machine.spawn ~name:"test" machine (fun () ->
      ok (Bento.Bentofs.mkfs machine xv6_maker);
      let vfs, handle =
        ok (Bento.Bentofs.mount ~background:false machine xv6_maker)
      in
      let os = Kernel.Os.create vfs in
      for i = 0 to 24 do
        ok
          (Kernel.Os.write_file os
             (Printf.sprintf "/f%d" (i mod 5))
             (Bytes.make (1 lsl (8 + (i mod 6))) 'p'));
        ignore (ok (Kernel.Os.read_file os (Printf.sprintf "/f%d" (i mod 5))));
        incr ops
      done;
      ok (Kernel.Os.sync os);
      Bento.Bentofs.unmount vfs handle);
  Kernel.Machine.run machine;
  Alcotest.(check int) "ring held the whole run" 0 (Sim.Trace.dropped tr);
  let notes = Sim.Trace.notes tr in
  let key (e : Sim.Trace.event) = (e.ts, e.tid, e.req, e.cat, e.name) in
  ( Kernel.Machine.now machine,
    !ops,
    List.map key notes,
    Sim.Trace.length tr - List.length notes )

let test_tracing_does_not_perturb () =
  let t_off, ops_off, notes_off, others_off = run_workload ~traced:false () in
  let t_on, ops_on, notes_on, others_on = run_workload ~traced:true () in
  Alcotest.(check int64) "virtual end time identical" t_off t_on;
  Alcotest.(check int) "same work done" ops_off ops_on;
  Alcotest.(check bool) "notes recorded untraced" true (notes_off <> []);
  Alcotest.(check bool) "identical notes traced and untraced" true
    (notes_off = notes_on);
  Alcotest.(check int) "untraced run has no span/flow/counter events" 0
    others_off;
  Alcotest.(check bool) "traced run captured spans" true (others_on > 0)

let suite =
  [
    tc "span capture" `Quick test_span_capture;
    tc "ring bounded" `Quick test_ring_bounded;
    tc "chrome export wellformed" `Quick test_chrome_json_wellformed;
    tc "chrome ts precision" `Quick test_chrome_ts_precision;
    tc "tracing does not perturb virtual time" `Quick
      test_tracing_does_not_perturb;
  ]
