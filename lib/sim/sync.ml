(** Virtual-time synchronisation primitives.

    These mirror the kernel primitives the paper's file systems use: sleeping
    mutexes (xv6 sleeplocks / kernel semaphores), condition variables,
    counting semaphores, and reader-writer locks. All queues are FIFO with
    direct handoff, which keeps the simulation deterministic and fair. *)

module Mutex = struct
  type t = {
    name : string;
    reason : string; (* "mutex <name>", for deadlock reports *)
    mutable locked : bool;
    waiters : (unit -> unit) Queue.t;
    mutable contended : int; (* stat: how many lock() calls had to wait *)
    mutable acquisitions : int;
    mutable wait_ns : int64; (* total virtual time lock() calls spent blocked *)
    mutable max_wait_ns : int64; (* longest single blocked wait *)
  }

  let create ?(name = "mutex") () =
    {
      name;
      reason = "mutex " ^ name;
      locked = false;
      waiters = Queue.create ();
      contended = 0;
      acquisitions = 0;
      wait_ns = 0L;
      max_wait_ns = 0L;
    }

  let lock m =
    m.acquisitions <- m.acquisitions + 1;
    if not m.locked then m.locked <- true
    else begin
      m.contended <- m.contended + 1;
      (* Ownership is handed to us directly by [unlock]; [locked] stays true. *)
      let dt =
        Engine.block ~lock:m.name m.reason (fun waker ->
            Queue.push waker m.waiters)
      in
      m.wait_ns <- Int64.add m.wait_ns dt;
      if Int64.compare dt m.max_wait_ns > 0 then m.max_wait_ns <- dt
    end

  let try_lock m =
    if m.locked then false
    else begin
      m.locked <- true;
      m.acquisitions <- m.acquisitions + 1;
      true
    end

  let unlock m =
    if not m.locked then invalid_arg ("Mutex.unlock while unlocked: " ^ m.name);
    match Queue.take_opt m.waiters with
    | Some waker -> waker () (* direct handoff: stays locked *)
    | None -> m.locked <- false

  let locked m = m.locked
  let contended m = m.contended
  let acquisitions m = m.acquisitions
  let wait_ns m = m.wait_ns
  let max_wait_ns m = m.max_wait_ns

  let with_lock m f =
    lock m;
    match f () with
    | v ->
        unlock m;
        v
    | exception exn ->
        unlock m;
        raise exn
end

module Condvar = struct
  type t = { waiters : (unit -> unit) Queue.t }

  let create () = { waiters = Queue.create () }

  (** Atomically release [m], wait for a signal, then re-acquire [m]. *)
  let wait t m =
    ignore
      (Engine.block "condvar" (fun waker ->
           Queue.push waker t.waiters;
           Mutex.unlock m));
    Mutex.lock m

  let signal t =
    match Queue.take_opt t.waiters with Some w -> w () | None -> ()

  let broadcast t =
    let rec drain () =
      match Queue.take_opt t.waiters with
      | Some w ->
          w ();
          drain ()
      | None -> ()
    in
    drain ()

  let waiting t = Queue.length t.waiters
end

module Semaphore = struct
  type t = { mutable count : int; waiters : (unit -> unit) Queue.t }

  let create n =
    if n < 0 then invalid_arg "Semaphore.create";
    { count = n; waiters = Queue.create () }

  let acquire t =
    if t.count > 0 then t.count <- t.count - 1
    else
      ignore
        (Engine.block "semaphore" (fun waker -> Queue.push waker t.waiters))

  let try_acquire t =
    if t.count > 0 then begin
      t.count <- t.count - 1;
      true
    end
    else false

  let release t =
    match Queue.take_opt t.waiters with
    | Some w -> w () (* handoff: count stays the same *)
    | None -> t.count <- t.count + 1

  let available t = t.count
end

module Rwlock = struct
  type waiter = Reader of (unit -> unit) | Writer of (unit -> unit)

  type t = {
    name : string;
    read_reason : string; (* "rwlock(r) <name>", for deadlock reports *)
    write_reason : string;
    mutable readers : int;
    mutable writer : bool;
    waiters : waiter Queue.t;
  }

  let create ?(name = "rwlock") () =
    {
      name;
      read_reason = "rwlock(r) " ^ name;
      write_reason = "rwlock(w) " ^ name;
      readers = 0;
      writer = false;
      waiters = Queue.create ();
    }

  (* Wake as many queued waiters as can now run: either one writer, or a
     maximal prefix of readers. FIFO prevents writer starvation. *)
  let rec wake_next t =
    match Queue.peek_opt t.waiters with
    | Some (Writer w) when t.readers = 0 && not t.writer ->
        ignore (Queue.pop t.waiters);
        t.writer <- true;
        w ()
    | Some (Reader w) when not t.writer ->
        ignore (Queue.pop t.waiters);
        t.readers <- t.readers + 1;
        w ();
        wake_next t
    | _ -> ()

  let read_lock t =
    if (not t.writer) && Queue.is_empty t.waiters then
      t.readers <- t.readers + 1
    else
      ignore
        (Engine.block ~lock:t.name t.read_reason (fun waker ->
             Queue.push (Reader waker) t.waiters))

  let read_unlock t =
    if t.readers <= 0 then invalid_arg "Rwlock.read_unlock";
    t.readers <- t.readers - 1;
    if t.readers = 0 then wake_next t

  let write_lock t =
    if t.readers = 0 && (not t.writer) && Queue.is_empty t.waiters then
      t.writer <- true
    else
      ignore
        (Engine.block ~lock:t.name t.write_reason (fun waker ->
             Queue.push (Writer waker) t.waiters))

  let write_unlock t =
    if not t.writer then invalid_arg "Rwlock.write_unlock";
    t.writer <- false;
    wake_next t

  let with_read t f =
    read_lock t;
    match f () with
    | v ->
        read_unlock t;
        v
    | exception e ->
        read_unlock t;
        raise e

  let with_write t f =
    write_lock t;
    match f () with
    | v ->
        write_unlock t;
        v
    | exception e ->
        write_unlock t;
        raise e
end

(** A one-shot event that fibers can wait on; used for request completion. *)
module Ivar = struct
  type 'a state = Empty of (unit -> unit) Queue.t | Full of 'a

  type 'a t = { mutable state : 'a state }

  let create () = { state = Empty (Queue.create ()) }

  let fill t v =
    match t.state with
    | Full _ -> invalid_arg "Ivar.fill: already filled"
    | Empty q ->
        t.state <- Full v;
        Queue.iter (fun w -> w ()) q

  let is_full t = match t.state with Full _ -> true | Empty _ -> false

  let read t =
    match t.state with
    | Full v -> v
    | Empty q -> (
        ignore (Engine.block "ivar" (fun waker -> Queue.push waker q));
        match t.state with
        | Full v -> v
        | Empty _ -> assert false)
end

(** Bounded FIFO channel between fibers (FUSE request queue, daemon loop). *)
module Channel = struct
  type 'a t = {
    capacity : int;
    items : 'a Queue.t;
    senders : (unit -> unit) Queue.t;
    receivers : (unit -> unit) Queue.t;
    mutable closed : bool;
  }

  exception Closed

  let create ?(capacity = max_int) () =
    if capacity < 1 then invalid_arg "Channel.create";
    {
      capacity;
      items = Queue.create ();
      senders = Queue.create ();
      receivers = Queue.create ();
      closed = false;
    }

  let send t v =
    if t.closed then raise Closed;
    if Queue.length t.items >= t.capacity then
      ignore (Engine.block "channel send" (fun w -> Queue.push w t.senders));
    if t.closed then raise Closed;
    Queue.push v t.items;
    match Queue.take_opt t.receivers with Some w -> w () | None -> ()

  let recv t =
    if Queue.is_empty t.items then begin
      if t.closed then raise Closed;
      ignore (Engine.block "channel recv" (fun w -> Queue.push w t.receivers))
    end;
    match Queue.take_opt t.items with
    | Some v ->
        (match Queue.take_opt t.senders with Some w -> w () | None -> ());
        v
    | None -> if t.closed then raise Closed else invalid_arg "Channel.recv"

  (* [recv] can raise [Closed] in two ways: immediately (empty + already
     closed) or after blocking, when [close] wakes the receiver with no item
     to hand over. Both mean the same thing here: no more values. *)
  let recv_opt t = match recv t with v -> Some v | exception Closed -> None

  let close t =
    t.closed <- true;
    Queue.iter (fun w -> w ()) t.receivers;
    Queue.clear t.receivers;
    Queue.iter (fun w -> w ()) t.senders;
    Queue.clear t.senders

  let length t = Queue.length t.items
end
