(* The event-loop runtime under virtual time: run the full
   [Server_core.Make (Evloop.R)] machinery — admission, worker pool,
   breaker, drain — on the production event-loop scheduler with its
   [`Virtual] clock, drive it with a seeded client fleet, and hold it to
   the same audits the Sched-based scenarios enforce: rwlock exclusion
   probed every scheduler step, the HEALTH ledger balancing exactly, and
   (since the loop is FIFO and the workload seeded) a byte-identical
   rerun.  The serving runtime faces the sim before any socket. *)

module Core = Perso_server.Server_core.Make (Perso_server.Evloop.R)
module Evloop = Perso_server.Evloop
module Protocol = Perso_server.Protocol
module Server_core = Perso_server.Server_core

let save_variants =
  [|
    "[ GENRE.genre = 'comedy', 0.9 ] [ MOVIE.mid = GENRE.mid, 0.8 ]";
    "[ ACTOR.name = 'N. Kidman', 0.7 ] [ CAST.aid = ACTOR.aid, 0.9 ] [ \
     MOVIE.mid = CAST.mid, 0.9 ]";
    "";
    "[ not a condition, 2 ]";
  |]

type trial = {
  health : (string * string) list;
  shed_at_stop : int;
  submits : int;
  client_ok : int;
}

let hstat health name =
  match List.assoc_opt name health with
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> -1)
  | None -> -1

(* One full fleet run; everything (scripts, pauses, drain point) derives
   from [seed], so two calls must agree field for field. *)
let run_once ~seed : (trial, string) result =
  let db = Moviedb.Personas.tiny_db () in
  let sqls =
    Moviedb.Workload.queries db ~n:4 ~seed:(seed + 17)
    |> List.map Relal.Sql_print.query_to_string
    |> Array.of_list
  in
  let rng = Putil.Rng.create (0xe71009 + (seed * 31)) in
  let n_clients = Putil.Rng.int_in rng 2 4 in
  let reqs_per_client = Putil.Rng.int_in rng 6 14 in
  let drain_mid = Putil.Rng.bool rng in
  let scripts =
    Array.init n_clients (fun cid ->
        let crng = Putil.Rng.create ((seed * 1009) + cid) in
        List.init reqs_per_client (fun _ ->
            let pause =
              float_of_int (Putil.Rng.int_in crng 0 120) /. 1000.
            in
            let deadline_ms =
              if Putil.Rng.int crng 100 < 25 then
                Some (float_of_int (Putil.Rng.int_in crng 5 300))
              else None
            in
            (pause, deadline_ms, Putil.Rng.int crng 100)))
  in
  let submits = ref 0 and client_ok = ref 0 in
  let final_health = ref [] in
  let outcome = ref None in
  Relal.Chaos.set_sleep (fun ms -> Evloop.sleep (ms /. 1000.));
  Relal.Governor.set_clock (fun () -> Evloop.now ());
  let restore () =
    Relal.Governor.set_clock Relal.Governor.real_clock;
    Relal.Chaos.set_sleep ignore
  in
  Fun.protect ~finally:restore @@ fun () ->
  let loop_result =
    Evloop.run ~clock:`Virtual ~max_steps:2_000_000 (fun () ->
        let core =
          Core.create
            {
              (Server_core.default_config ~socket_path:"<evloop-sim>") with
              workers = 2;
              queue_capacity = 3;
              deadline_ms = Some 2_000.;
              max_rows = Some 200_000;
              max_expansions = Some 2_000;
              drain_ms = 300.;
              shards = 1 + (seed mod 2);
            }
            db
        in
        Evloop.add_probe (fun () ->
            List.iteri
              (fun i (readers, writer) ->
                if writer && readers > 0 then
                  raise
                    (Evloop.Failed
                       (Printf.sprintf
                          "rwlock-exclusion: lock %d writer active with %d \
                           reader(s)"
                          i readers)))
              (Core.lock_states core));
        let client cid =
          let user = Printf.sprintf "u%d" cid in
          List.iter
            (fun (pause, deadline_ms, kind) ->
              Evloop.sleep pause;
              if kind >= 92 then ignore (Core.health core : (string * string) list)
              else begin
                incr submits;
                let cmd =
                  if kind < 40 then
                    Protocol.Run sqls.(kind mod Array.length sqls)
                  else if kind < 65 then
                    Protocol.Personalize
                      { user; sql = sqls.(kind mod Array.length sqls) }
                  else if kind < 80 then
                    Protocol.Profile_save
                      {
                        user;
                        entries =
                          save_variants.(kind mod Array.length save_variants);
                      }
                  else Protocol.Profile_show user
                in
                let hdr = { Protocol.empty_header with deadline_ms } in
                match Core.submit core hdr cmd with
                | Server_core.R_rows _ | Server_core.R_message _ ->
                    incr client_ok
                | Server_core.R_error _ -> ()
              end)
            scripts.(cid)
        in
        let clients =
          List.init n_clients (fun cid ->
              Evloop.spawn
                ~name:(Printf.sprintf "client-%d" cid)
                (fun () -> client cid))
        in
        (* Half the seeds drain mid-traffic so the admission-time shed
           path runs; clients keep submitting into the draining core. *)
        if drain_mid then
          ignore
            (Evloop.spawn ~name:"drainer" (fun () ->
                 Evloop.sleep 0.15;
                 Core.request_stop core;
                 Core.begin_drain core)
              : Evloop.task);
        List.iter Evloop.join clients;
        outcome := Some (Core.stop core);
        final_health := Core.health core)
  in
  match (loop_result, !outcome) with
  | Error e, _ -> Error e
  | Ok (), None -> Error "loop finished without stopping the server"
  | Ok (), Some o ->
      Ok
        {
          health = !final_health;
          shed_at_stop = o.Server_core.shed_at_stop;
          submits = !submits;
          client_ok = !client_ok;
        }

let audit (t : trial) : (unit, string) result =
  let n k = hstat t.health k in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if List.assoc_opt "state" t.health <> Some "stopped" then
    fail "ledger: server not stopped"
  else if n "queue_depth" <> 0 || n "in_flight" <> 0 then
    fail "ledger: residual work after stop: queue=%d in_flight=%d"
      (n "queue_depth") (n "in_flight")
  else if
    t.submits
    <> n "accepted" + n "shed_queue_full" + (n "shed_draining" - t.shed_at_stop)
  then
    fail
      "ledger: arrivals %d <> accepted %d + shed_queue_full %d + \
       shed_draining' %d"
      t.submits (n "accepted") (n "shed_queue_full")
      (n "shed_draining" - t.shed_at_stop)
  else if
    n "accepted"
    <> n "completed_ok" + n "completed_err" + n "shed_expired" + t.shed_at_stop
  then
    fail
      "ledger: accepted %d <> completed_ok %d + completed_err %d + \
       shed_expired %d + shed_at_stop %d"
      (n "accepted") (n "completed_ok") (n "completed_err") (n "shed_expired")
      t.shed_at_stop
  else if t.client_ok <> n "completed_ok" then
    fail "ledger: client-observed successes %d <> completed_ok %d" t.client_ok
      (n "completed_ok")
  else if
    n "pers_ok" + n "pers_err"
    <> n "cache_hit" + n "cache_miss" + n "cache_bypass"
  then
    fail "ledger: pers %d+%d <> cache %d+%d+%d" (n "pers_ok") (n "pers_err")
      (n "cache_hit") (n "cache_miss") (n "cache_bypass")
  else Ok ()

let run ~seed : (unit, string) result =
  match run_once ~seed with
  | Error e -> Error e
  | Ok first -> (
      match audit first with
      | Error e -> Error e
      | Ok () -> (
          (* Determinism: a FIFO loop under a virtual clock with a
             seeded workload must reproduce the run exactly. *)
          match run_once ~seed with
          | Error e -> Error ("rerun failed: " ^ e)
          | Ok second ->
              if second = first then Ok ()
              else Error "nondeterministic: rerun disagrees with first run"))
