(** Unit tests of the FUSE daemon's user-level buffer cache: its eviction
    order against a reference model of the rule, the pin case, and
    invalidation at unmount. *)

open Helpers

let tc = Alcotest.test_case
let capacity = 8

let with_ubc f =
  in_sim ~disk_blocks:1024 (fun machine ->
      f (Fusesim.Ubcache.create ~capacity (Fusesim.Ufile.create machine)))

let counter ubc name =
  Sim.Stats.Counter.get_int
    (Sim.Stats.counter (Fusesim.Ubcache.stats ubc) name)

(* The rule stated directly: on a miss in a full cache, evict the buffer
   with the smallest last-release tick among those with no references and
   no pins (never-released buffers are always referenced). *)
type entry = { mutable refs : int; mutable pins : int; mutable tick : int }

type model = {
  entries : (int, entry) Hashtbl.t;
  mutable now : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

(* [Some victim] or [None] when every cached buffer is held or pinned. *)
let model_get m block =
  match Hashtbl.find_opt m.entries block with
  | Some e ->
      m.hits <- m.hits + 1;
      e.refs <- e.refs + 1;
      `Ok
  | None -> (
      m.misses <- m.misses + 1;
      let admit () =
        Hashtbl.replace m.entries block { refs = 1; pins = 0; tick = 0 }
      in
      if Hashtbl.length m.entries < capacity then begin
        admit ();
        `Ok
      end
      else
        let victim =
          Hashtbl.fold
            (fun blk e best ->
              if e.refs > 0 || e.pins > 0 then best
              else
                match best with
                | Some (_, t) when t <= e.tick -> best
                | _ -> Some (blk, e.tick))
            m.entries None
        in
        match victim with
        | None -> `No_buffers
        | Some (blk, _) ->
            Hashtbl.remove m.entries blk;
            m.evictions <- m.evictions + 1;
            admit ();
            `Ok)

let test_matches_model () =
  with_seed ~default:14 @@ fun seed ->
  with_ubc (fun ubc ->
      let rng = Sim.Rng.create seed in
      let m =
        { entries = Hashtbl.create 16; now = 0; hits = 0; misses = 0;
          evictions = 0 }
      in
      (* one entry per outstanding reference, and the buffer of every
         cached block (still valid while the block stays cached) *)
      let held = ref [] in
      let bufs = Hashtbl.create 16 in
      let pick l = List.nth l (Sim.Rng.int rng (List.length l)) in
      let no_buffers = ref 0 in
      for step = 1 to 4000 do
        let get read =
          let block = Sim.Rng.int rng (2 * capacity) in
          let expected = model_get m block in
          let got =
            match
              if read then Fusesim.Ubcache.bread ubc block
              else Fusesim.Ubcache.getblk ubc block
            with
            | b ->
                Hashtbl.replace bufs block b;
                held := (block, b) :: !held;
                `Ok
            | exception Fusesim.Ubcache.No_buffers ->
                incr no_buffers;
                `No_buffers
          in
          if got <> expected then
            Alcotest.failf "step %d: block %d: No_buffers %s the model" step
              block
              (if got = `No_buffers then "against" else "missed by")
        in
        (match Sim.Rng.int rng 10 with
        | 0 | 1 | 2 -> get true
        | 3 -> get false
        | 4 | 5 | 6 | 7 when !held <> [] ->
            let ((block, b) as h) = pick !held in
            held := List.filter (fun h' -> h' != h) !held;
            Fusesim.Ubcache.brelse ubc b;
            let e = Hashtbl.find m.entries block in
            e.refs <- e.refs - 1;
            m.now <- m.now + 1;
            e.tick <- m.now
        | 8 when !held <> [] ->
            let block, b = pick !held in
            Fusesim.Ubcache.pin b;
            let e = Hashtbl.find m.entries block in
            e.pins <- e.pins + 1
        | 9 -> (
            let pinned =
              Hashtbl.fold
                (fun blk e acc -> if e.pins > 0 then blk :: acc else acc)
                m.entries []
              |> List.sort compare
            in
            match pinned with
            | [] -> ()
            | l ->
                let block = pick l in
                Fusesim.Ubcache.unpin (Hashtbl.find bufs block);
                let e = Hashtbl.find m.entries block in
                e.pins <- e.pins - 1)
        | _ -> ());
        let check name got want =
          if got <> want then
            Alcotest.failf "step %d: %s = %d, model says %d" step name got
              want
        in
        check "hits" (counter ubc "hits") m.hits;
        check "misses" (counter ubc "misses") m.misses;
        check "evictions" (counter ubc "evictions") m.evictions;
        check "cached blocks"
          (Fusesim.Ubcache.cached_blocks ubc)
          (Hashtbl.length m.entries)
      done;
      Alcotest.(check bool) "sequence evicted" true (m.evictions > 0);
      Alcotest.(check bool) "sequence exhausted the cache" true
        (!no_buffers > 0))

(* A buffer pinned across its release keeps the place of that release:
   once unpinned it is evicted ahead of buffers released after it, even
   though it became evictable last. *)
let test_unpinned_keeps_release_order () =
  with_ubc (fun ubc ->
      let get blk = Fusesim.Ubcache.bread ubc blk in
      let early = get 0 in
      Fusesim.Ubcache.pin early;
      Fusesim.Ubcache.brelse ubc early;
      for blk = 1 to capacity - 1 do
        Fusesim.Ubcache.brelse ubc (get blk)
      done;
      Fusesim.Ubcache.unpin early;
      Fusesim.Ubcache.brelse ubc (get capacity);
      let misses = counter ubc "misses" in
      (* block 0 went; block 1, released after it, is still cached *)
      Fusesim.Ubcache.brelse ubc (get 1);
      Alcotest.(check int) "block 1 still cached" misses (counter ubc "misses");
      Fusesim.Ubcache.brelse ubc (get 0);
      Alcotest.(check int) "block 0 was the victim" (misses + 1)
        (counter ubc "misses"))

let test_invalidate_drops_every_buffer () =
  with_ubc (fun ubc ->
      for blk = 0 to capacity - 1 do
        Fusesim.Ubcache.brelse ubc (Fusesim.Ubcache.bread ubc blk)
      done;
      (* the disk file now differs from the cached copy of block 3 *)
      Fusesim.Ubcache.raw_write ubc 3 (Bytes.make 4096 'n');
      Fusesim.Ubcache.invalidate ubc;
      Alcotest.(check int) "nothing cached" 0 (Fusesim.Ubcache.cached_blocks ubc);
      let before = counter ubc "misses" in
      let b = Fusesim.Ubcache.bread ubc 3 in
      Alcotest.(check int) "next bread misses" (before + 1) (counter ubc "misses");
      Alcotest.(check char) "disk bytes" 'n' (Bytes.get (Fusesim.Ubcache.data b) 0);
      Fusesim.Ubcache.brelse ubc b;
      (* the emptied list still evicts in release order *)
      for blk = 10 to 10 + capacity do
        Fusesim.Ubcache.brelse ubc (Fusesim.Ubcache.bread ubc blk)
      done;
      Alcotest.(check int) "full again" capacity
        (Fusesim.Ubcache.cached_blocks ubc))

let test_invalidate_refuses_busy_buffers () =
  with_ubc (fun ubc ->
      let refused what =
        let cached = Fusesim.Ubcache.cached_blocks ubc in
        (match Fusesim.Ubcache.invalidate ubc with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.failf "invalidate accepted a %s buffer" what);
        Alcotest.(check int) (what ^ ": cache kept") cached
          (Fusesim.Ubcache.cached_blocks ubc)
      in
      let b = Fusesim.Ubcache.bread ubc 1 in
      refused "held";
      Fusesim.Ubcache.pin b;
      Fusesim.Ubcache.brelse ubc b;
      refused "pinned";
      Fusesim.Ubcache.unpin b;
      Fusesim.Ubcache.invalidate ubc;
      Alcotest.(check int) "emptied once idle" 0
        (Fusesim.Ubcache.cached_blocks ubc))

let suite =
  [
    tc "eviction order == reference model" `Quick test_matches_model;
    tc "unpinned buffer keeps its release order" `Quick
      test_unpinned_keeps_release_order;
    tc "invalidate drops every buffer" `Quick
      test_invalidate_drops_every_buffer;
    tc "invalidate refuses held, pinned" `Quick
      test_invalidate_refuses_busy_buffers;
  ]
