(* The socket side: a perso_cli serve child process and closed-loop
   connections to it.  Replies are read as raw bytes and digested, so
   the check compares exactly what a client receives. *)

let now = Unix.gettimeofday

(* CPU time the hypervisor gave to other guests ("steal"), in seconds
   summed over CPUs, from the first line of /proc/stat (USER_HZ = 100). *)
let steal_s () =
  match
    String.split_on_char ' ' (In_channel.with_open_text "/proc/stat" input_line)
    |> List.filter (( <> ) "")
  with
  | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: st :: _ -> float_of_string st /. 100.
  | _ -> 0.

(* ------------------------------- server -------------------------------- *)

type server = {
  pid : int;
  err : in_channel;  (** the child's stderr *)
  mutable log : string list;  (** stderr lines after the readiness line *)
  mutable drainer : Thread.t option;
  setup_s : float;  (** spawn until the "serving on" line *)
}

let live : server list ref = ref []

let kill s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
  live := List.filter (fun s' -> s'.pid <> s.pid) !live

let kill_all () = List.iter kill !live

(* [args] follow "serve"; the child's stdout is discarded.  GC statistics
   print to stderr at exit (OCAMLRUNPARAM v=0x400). *)
let spawn ~cli args =
  let r, w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let env = Array.append [| "OCAMLRUNPARAM=v=0x400" |] (Unix.environment ()) in
  let t0 = now () in
  let pid =
    Unix.create_process_env cli
      (Array.of_list (cli :: "serve" :: args))
      env Unix.stdin devnull w
  in
  Unix.close w;
  Unix.close devnull;
  let err = Unix.in_channel_of_descr r in
  let rec ready () =
    match In_channel.input_line err with
    | None -> None
    | Some l when String.starts_with ~prefix:"serving on " l -> Some (now () -. t0)
    | Some _ -> ready ()
  in
  match ready () with
  | Some setup_s ->
      let s = { pid; err; log = []; drainer = None; setup_s } in
      live := s :: !live;
      (* Keep the pipe drained so the server never blocks on stderr. *)
      s.drainer <-
        Some
          (Thread.create
             (fun () ->
               let rec go () =
                 match In_channel.input_line err with
                 | Some l ->
                     s.log <- l :: s.log;
                     go ()
                 | None -> ()
               in
               go ())
             ());
      s
  | None ->
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      failwith ("perso_cli serve " ^ String.concat " " args ^ " exited before serving")

(* Peak resident set size (VmHWM) in MiB. *)
let peak_rss_mb s =
  let path = Printf.sprintf "/proc/%d/status" s.pid in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         if String.starts_with ~prefix:"VmHWM:" l then
           Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.))
         else None)
  |> Option.value ~default:0.

(* After SHUTDOWN: wait for exit, collect the remaining stderr. *)
let wait_exit s =
  let _, status = Unix.waitpid [] s.pid in
  Option.iter Thread.join s.drainer;
  close_in_noerr s.err;
  live := List.filter (fun s' -> s'.pid <> s.pid) !live;
  (status, List.rev s.log)

(* ------------------------------- client -------------------------------- *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

type status = Ok_reply | Err_reply of string  (** family *) | Transport of string

type reply = {
  status : status;
  digest : Digest.t;  (** MD5 of the reply's bytes *)
  sent_at : float;  (** when the request was sent *)
  latency_s : float;  (** send until the reply's last byte *)
  body : string list;  (** the lines, kept only when asked for *)
}

(* A reply is one ERR line, or an OK line through END. *)
let request ?(keep = false) c line =
  let t0 = now () in
  match
    output_string c.oc line;
    output_char c.oc '\n';
    flush c.oc;
    let ctx = Buffer.create 4096 in
    let lines = ref [] in
    let add l =
      Buffer.add_string ctx l;
      Buffer.add_char ctx '\n';
      if keep then lines := l :: !lines
    in
    let first =
      match In_channel.input_line c.ic with
      | Some l -> l
      | None -> raise End_of_file
    in
    add first;
    let status =
      if String.starts_with ~prefix:"ERR " first then
        Err_reply (List.nth (String.split_on_char ' ' first) 1)
      else begin
        let rec body () =
          match In_channel.input_line c.ic with
          | None -> raise End_of_file
          | Some "END" -> add "END"
          | Some l ->
              add l;
              body ()
        in
        body ();
        Ok_reply
      end
    in
    let t1 = now () in
    {
      status;
      digest = Digest.string (Buffer.contents ctx);
      sent_at = t0;
      latency_s = t1 -. t0;
      body = List.rev !lines;
    }
  with
  | r -> r
  | exception e ->
      {
        status = Transport (Printexc.to_string e);
        digest = Digest.string "";
        sent_at = t0;
        latency_s = now () -. t0;
        body = [];
      }

(* HEALTH as an association list (STAT lines). *)
let health c =
  let r = request ~keep:true c "HEALTH" in
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "STAT"; k; v ] -> Some (k, v)
      | _ -> None)
    r.body

let stat h k =
  match List.assoc_opt k h with
  | Some v -> Option.value ~default:0 (int_of_string_opt v)
  | None -> 0

(* Connect, retrying only while the socket file is not there yet. *)
let connect_ready path =
  let rec go n =
    match connect path with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when n > 0 ->
        Thread.delay 0.005;
        go (n - 1)
  in
  go 2000

(* ----------------------------- closed loop ----------------------------- *)

(* Requests [lo, hi) of a [len]-request script form round [r]. *)
let slice ~rounds ~len r = (r * len / rounds, (r + 1) * len / rounds)

(* Run one script per connection, each request sent when the previous
   reply is complete.  The scripts are cut into [rounds] slices, and the
   connections meet at a barrier after each, so each round has its own
   elapsed time and host steal: [marks.(r)] is (time, steal) when round
   [r] starts, [marks.(rounds)] when the last one ends. *)
let closed_loop ~socket ~rounds scripts =
  let n = Array.length scripts in
  let replies = Array.map (fun s -> Array.make (Array.length s) None) scripts in
  let m = Mutex.create () and cv = Condition.create () in
  let arrived = ref 0 and generation = ref 0 in
  let marks = Array.make (rounds + 1) (0., 0.) in
  let barrier r =
    Mutex.lock m;
    incr arrived;
    if !arrived = n then begin
      arrived := 0;
      incr generation;
      marks.(r) <- (now (), steal_s ());
      Condition.broadcast cv
    end
    else begin
      let g = !generation in
      while !generation = g do
        Condition.wait cv m
      done
    end;
    Mutex.unlock m
  in
  let conns = Array.map (fun _ -> connect socket) scripts in
  let worker i () =
    let s = scripts.(i) in
    barrier 0;
    for r = 0 to rounds - 1 do
      let lo, hi = slice ~rounds ~len:(Array.length s) r in
      for j = lo to hi - 1 do
        replies.(i).(j) <- Some (request conns.(i) s.(j))
      done;
      barrier (r + 1)
    done
  in
  let threads = Array.mapi (fun i _ -> Thread.create (worker i) ()) scripts in
  Array.iter Thread.join threads;
  Array.iter close conns;
  (Array.map (Array.map Option.get) replies, marks)
