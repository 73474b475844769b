(* The socket front end.  Everything behind the wire — admission queue,
   worker pool, budgets, breaker, drain, ledger — lives in
   {!Server_core}; here it runs on the single-domain {!Evloop} runtime.
   The acceptor and every connection are cooperative tasks parked on fd
   readiness, and replies render into a buffer ({!Protocol.bprint_rows}
   and friends) that goes out in one batched write.

   Two hostile-client bounds protect the loop itself: connections are
   capped below select(2)'s FD_SETSIZE, and a request line is capped at
   {!Protocol.max_line_bytes}.  Both refusals are typed ERR replies
   counted in HEALTH. *)

module Core = Server_core.Make (Evloop.R)

type config = Server_core.config
type drain_outcome = Server_core.drain_outcome

let max_connections = 1000

(* [Unix.select] fails with EINVAL on any fd numbered FD_SETSIZE or
   above, and one such parked fd would take the whole loop down.  The
   connection cap alone does not rule that out: the process's other
   fds (store WALs, and in tests the clients themselves) push accepted
   fds higher. *)
let fd_setsize = 1024

(* On Unix a [file_descr] is the kernel's fd number. *)
let fd_number (fd : Unix.file_descr) : int = Obj.magic fd

(* ---------------------------- connections ---------------------------- *)

exception Line_too_long

type conn = {
  fd : Unix.file_descr;
  rbuf : Bytes.t;
  mutable rpos : int;  (* rbuf.[rpos, rlen) is read but not yet consumed *)
  mutable rlen : int;
  partial : Buffer.t;  (* the start of a line that spans reads *)
  mutable eof : bool;
}

(* One line, parking on readability when the buffer runs dry.  Each
   byte is scanned once and copied at most twice, and a line longer
   than {!Protocol.max_line_bytes} raises [Line_too_long] as soon as
   that many bytes have arrived, newline or not.  EOF with a partial
   line returns the partial line, like [In_channel.input_line]. *)
let rec read_line c =
  let too_long extra =
    Buffer.length c.partial + extra > Protocol.max_line_bytes
  in
  let rec newline i =
    if i >= c.rlen then None
    else if Bytes.get c.rbuf i = '\n' then Some i
    else newline (i + 1)
  in
  match newline c.rpos with
  | Some i ->
      if too_long (i - c.rpos) then raise Line_too_long;
      Buffer.add_subbytes c.partial c.rbuf c.rpos (i - c.rpos);
      c.rpos <- i + 1;
      let line = Buffer.contents c.partial in
      Buffer.clear c.partial;
      Some line
  | None ->
      if too_long (c.rlen - c.rpos) then raise Line_too_long;
      Buffer.add_subbytes c.partial c.rbuf c.rpos (c.rlen - c.rpos);
      c.rpos <- 0;
      c.rlen <- 0;
      if c.eof then
        if Buffer.length c.partial = 0 then None
        else begin
          let line = Buffer.contents c.partial in
          Buffer.clear c.partial;
          Some line
        end
      else begin
        ignore (Evloop.wait_readable c.fd : bool);
        (match Unix.read c.fd c.rbuf 0 (Bytes.length c.rbuf) with
        | 0 -> c.eof <- true
        | n -> c.rlen <- n
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
            ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> c.eof <- true);
        read_line c
      end

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write_substring fd s off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ignore (Evloop.wait_writable fd : bool);
          go off
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let render f =
  let b = Buffer.create 256 in
  f b;
  Buffer.contents b

let send c f = write_all c.fd (render f)

let read_request c =
  let rec go hdr =
    match read_line c with
    | None -> None
    | Some line ->
        let line = String.trim line in
        if line = "" then go hdr
        else (
          match Protocol.parse_header_line line with
          | Some update -> go (update hdr)
          | None -> Some (hdr, Protocol.parse_command line))
  in
  go Protocol.empty_header

type loop_state = {
  core : Core.t;
  conns : (Unix.file_descr, Evloop.task) Hashtbl.t;
}

let handle_connection st fd =
  let c =
    {
      fd;
      rbuf = Bytes.create 8192;
      rpos = 0;
      rlen = 0;
      partial = Buffer.create 256;
      eof = false;
    }
  in
  let finally () =
    Hashtbl.remove st.conns fd;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally (fun () ->
      try
        let rec loop () =
          match read_request c with
          | None -> ()
          | Some (_, Error msg) ->
              send c (fun b ->
                  Protocol.bprint_error b (Perso.Error.Parse ("protocol: " ^ msg)));
              loop ()
          | Some (_, Ok Protocol.Quit) -> ()
          | Some (_, Ok Protocol.Ping) ->
              send c (fun b -> Protocol.bprint_message b "pong");
              loop ()
          | Some (_, Ok Protocol.Health) ->
              send c (fun b -> Protocol.bprint_stats b (Core.health st.core));
              loop ()
          | Some (_, Ok Protocol.Shutdown) ->
              send c (fun b -> Protocol.bprint_message b "draining");
              Core.request_stop st.core;
              Core.begin_drain st.core;
              loop ()
          | Some (hdr, Ok cmd) ->
              (match Core.submit st.core hdr cmd with
              | Server_core.R_rows { notes; result } ->
                  send c (fun b -> Protocol.bprint_rows b ~notes result)
              | Server_core.R_message m ->
                  send c (fun b -> Protocol.bprint_message b m)
              | Server_core.R_error e ->
                  send c (fun b -> Protocol.bprint_error b e));
              loop ()
        in
        loop ()
      with
      | Line_too_long -> (
          Core.count_refusal st.core `Line_too_long;
          try
            send c (fun b ->
                Protocol.bprint_error b
                  (Perso.Error.Parse
                     (Printf.sprintf "protocol: request line exceeds %d bytes"
                        Protocol.max_line_bytes)))
          with Unix.Unix_error _ -> ())
      | End_of_file | Sys_error _ -> ()
      | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ())

(* ------------------------------ acceptor ----------------------------- *)

(* A connection over the cap gets its typed refusal in one nonblocking
   write (a fresh socket's send buffer always has room for one line)
   and is closed without ever being parked. *)
let refuse st fd =
  Core.count_refusal st.core `Conn_limit;
  let line =
    render (fun b ->
        Protocol.bprint_error b
          (Perso.Error.Overloaded
             (Printf.sprintf "connection limit reached (%d open)"
                (Hashtbl.length st.conns))))
  in
  (try
     Unix.set_nonblock fd;
     ignore (Unix.write_substring fd line 0 (String.length line) : int)
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Accepting continues while draining: the control plane must answer and
   data commands shed with typed errors, so a client never hangs in the
   listen backlog.  Only a stopped core ends the loop. *)
let accept_loop st lfd =
  let rec loop () =
    if Core.stop_requested st.core then Core.begin_drain st.core;
    if Core.stopped st.core then ()
    else begin
      (if Evloop.wait_readable ~timeout:0.05 lfd then
         match Unix.accept lfd with
         | fd, _ ->
             if
               Hashtbl.length st.conns >= max_connections
               || fd_number fd >= fd_setsize
             then refuse st fd
             else begin
               Unix.set_nonblock fd;
               Hashtbl.replace st.conns fd
                 (Evloop.spawn ~name:"conn" (fun () -> handle_connection st fd))
             end
         | exception
             Unix.Unix_error
               ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
             ()
         | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
             (* Out of fds: the listener stays readable, so back off
                instead of spinning until a connection closes. *)
             Evloop.sleep 0.01
         | exception Unix.Unix_error _ -> ());
      loop ()
    end
  in
  loop ()

(* ------------------------------- run --------------------------------- *)

let listen_unix path =
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let listen_tcp port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  fd

(* The loop's main task: accept until something requests a stop — an
   external flag (signal handler), a SHUTDOWN command, or anything else
   that flags the core — then drain and close every connection. *)
let serve st listeners ~stop_flag ~on_started =
  let acceptors =
    List.map
      (fun lfd -> Evloop.spawn ~name:"acceptor" (fun () -> accept_loop st lfd))
      listeners
  in
  Option.iter (fun f -> f (Core.health st.core)) on_started;
  let rec await () =
    if Atomic.get stop_flag then Core.request_stop st.core;
    if not (Core.stop_requested st.core || Core.draining st.core) then begin
      Evloop.sleep 0.05;
      await ()
    end
  in
  await ();
  (* Requests that reached a connection while a query held the loop are
     still unread.  One poll round while draining answers each with a
     typed shed (or its control-plane reply) before the connections
     close. *)
  Core.begin_drain st.core;
  Evloop.sleep 0.01;
  Core.stop st.core ~on_quiesced:(fun () ->
      List.iter Evloop.join acceptors;
      (* Shutting the connection fds down fires their parked readers
         with EOF; each task closes its own fd and leaves the registry. *)
      let conns = Hashtbl.fold (fun fd task l -> (fd, task) :: l) st.conns [] in
      List.iter
        (fun (fd, _) ->
          try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
        conns;
      List.iter (fun (_, task) -> Evloop.join task) conns)

let run ?(stop_flag = Atomic.make false) ?on_started (cfg : config) db =
  (* A dead client mid-response must error the write, not kill us. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listeners =
    listen_unix cfg.socket_path
    :: (match cfg.tcp_port with Some p -> [ listen_tcp p ] | None -> [])
  in
  List.iter Unix.set_nonblock listeners;
  let outcome = ref (Error (Failure "Server: loop ended without an outcome")) in
  let loop_result =
    Evloop.run (fun () ->
        (* The core spawns its workers, so it is created inside the loop;
           its typed startup failures (store recovery) reach the caller
           raised, not as a crashed task. *)
        outcome :=
          match Core.create cfg db with
          | exception e -> Error e
          | core ->
              Ok
                (serve { core; conns = Hashtbl.create 64 } listeners ~stop_flag
                   ~on_started))
  in
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    listeners;
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  match (loop_result, !outcome) with
  | Error msg, _ -> failwith ("Server: " ^ msg)
  | Ok (), Ok o -> o
  | Ok (), Error e -> raise e

(* --------------------- background handle (tests) --------------------- *)

type t = {
  stop_flag : bool Atomic.t;
  mutable th : Thread.t option;
  mutable outcome : drain_outcome option;
  mutable error : string option;
  m : Mutex.t;
  cv : Condition.t;
  mutable started : bool;
}

let start cfg db =
  let t =
    {
      stop_flag = Atomic.make false;
      th = None;
      outcome = None;
      error = None;
      m = Mutex.create ();
      cv = Condition.create ();
      started = false;
    }
  in
  let mark_started () =
    Mutex.lock t.m;
    t.started <- true;
    Condition.broadcast t.cv;
    Mutex.unlock t.m
  in
  let th =
    Thread.create
      (fun () ->
        (try
           t.outcome <-
             Some
               (run ~stop_flag:t.stop_flag
                  ~on_started:(fun _ -> mark_started ())
                  cfg db)
         with e -> t.error <- Some (Printexc.to_string e));
        (* Unblock the starter even when binding failed. *)
        mark_started ())
      ()
  in
  t.th <- Some th;
  Mutex.lock t.m;
  while not t.started do
    Condition.wait t.cv t.m
  done;
  Mutex.unlock t.m;
  match t.error with
  | Some e ->
      Thread.join th;
      failwith e
  | None -> t

let request_stop t = Atomic.set t.stop_flag true

let stop t =
  request_stop t;
  Option.iter Thread.join t.th;
  match (t.error, t.outcome) with
  | Some e, _ -> failwith e
  | None, Some o -> o
  | None, None -> failwith "Server: stopped without an outcome"
