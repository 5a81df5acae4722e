(** The userspace FUSE daemon: a single-threaded loop (like libfuse's
    default session loop) that decodes each request, answers it with the
    user file system's [serve] function, and sends the encoded reply. *)

(** The daemon main loop; run it in its own fiber. Returns when the
    connection closes or after replying to [Destroy]. *)
let run (transport : Transport.t) (serve : Proto.request -> Proto.reply) =
  let machine = Transport.machine transport in
  let rec loop () =
    match Transport.next transport with
    | None -> ()
    | Some msg -> (
        match Proto.decode_request msg with
        | exception Proto.Malformed _ -> loop ()
        | unique, req ->
            (* Request processing is file-system work: the daemon runs the
               fs functor over user-level services. *)
            let reply =
              Kernel.Machine.with_layer machine "fs" (fun () -> serve req)
            in
            Transport.reply transport ~unique reply;
            (* libfuse exits its session loop after DESTROY *)
            if req = Proto.Destroy then () else loop ())
  in
  loop ()
