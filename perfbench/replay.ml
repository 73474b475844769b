(* In-process replay through the server's own core: the expected reply
   for every request the socket run sent, and — in the traced run — the
   untraced in-process [submit] time of each request. *)

open Perso_server
module Core = Server_core.Make (Runtime.Threads)

(* perso_cli serve's defaults: unlike [Server_core.default_config], the
   CLI arms no deadline, row or expansion budget unless asked to. *)
let config ?store_dir ~replicas () =
  {
    (Server_core.default_config ~socket_path:"") with
    Server_core.deadline_ms = None;
    max_rows = None;
    max_expansions = None;
    store_dir;
    replicas;
  }

let render b = function
  | Server_core.R_rows { notes; result } -> Protocol.bprint_rows b ~notes result
  | Server_core.R_message m -> Protocol.bprint_message b m
  | Server_core.R_error e -> Protocol.bprint_error b e

type t = {
  core : Core.t;
  dedupe : bool;
      (** reads are deterministic per (user, saves so far, template):
          replay each such key once *)
  memo : (int * int * int, Digest.t) Hashtbl.t;
  saves : (int, int) Hashtbl.t;
}

let create ?store_dir ~replicas ~dedupe db =
  {
    core = Core.create (config ?store_dir ~replicas ()) db;
    dedupe;
    memo = Hashtbl.create 4096;
    saves = Hashtbl.create 64;
  }

let saves_of t u = Option.value ~default:0 (Hashtbl.find_opt t.saves u)

(* The reply digest and the [submit] time in seconds (0 when memoized). *)
let run t pop req =
  let submit () =
    let cmd =
      match Protocol.parse_command (Population.line pop req) with
      | Ok cmd -> cmd
      | Error m -> failwith ("replay: " ^ m)
    in
    let t0 = Unix.gettimeofday () in
    let reply = Core.submit t.core Protocol.empty_header cmd in
    let dt = Unix.gettimeofday () -. t0 in
    let b = Buffer.create 4096 in
    render b reply;
    (Digest.string (Buffer.contents b), dt)
  in
  match req with
  | Population.Pers { user; tpl } -> (
      let key = (user, saves_of t user, tpl) in
      match Hashtbl.find_opt t.memo key with
      | Some d when t.dedupe -> (d, 0.)
      | _ ->
          let d, dt = submit () in
          Hashtbl.replace t.memo key d;
          (d, dt))
  | Population.Save { user; _ } ->
      let r = submit () in
      Hashtbl.replace t.saves user (saves_of t user + 1);
      r
  | Population.Load _ -> submit ()

let health t = Core.health t.core
let stop t = ignore (Core.stop t.core : Server_core.drain_outcome)
