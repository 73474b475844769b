(* The traced in-process pipeline.  It answers each request by calling
   the layers' public functions in the order Server_core does, with a
   span around every call, so a request's time splits into per-layer
   self times.  Spans live in memory and are written out at the end.

   Work the plan cache hides (bind, select, integrate on a miss) is
   re-run beside the request, under an "aside" root that is not part
   of the request's time, to price those layers. *)

open Perso
open Perso_server

type span = {
  req : int;  (** request index; -1 outside requests *)
  phase : string;
  id : int;
  parent : int;  (** -1 for roots *)
  name : string;
  t0 : float;
  t1 : float;
}

let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let cur_req = ref (-1)
let cur_phase = ref "setup"
let now = Unix.gettimeofday

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  let t0 = now () in
  let finish () =
    let t1 = now () in
    stack := List.tl !stack;
    spans := { req = !cur_req; phase = !cur_phase; id; parent; name; t0; t1 } :: !spans
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* ------------------------------ pipeline ------------------------------- *)

type t = {
  db : Relal.Database.t;  (** the catalog queries run against *)
  pdb : Relal.Database.t;  (** the profiles table, as one server shard *)
  cache : Perso_cache.t;
  lru : Profile_lru.t;
  replica : Perso_store.Replica.t;
  mutable wal_bytes : int list;  (** primary WAL growth per append *)
  mutable expansions : int list;  (** Select expansions per cold plan *)
  mutable miss_s : float list;  (** Perso_cache.personalize when not a hit *)
}

(* Same bounds as one shard of perso_cli serve's defaults; the profiles
   are restored from the store in [store_dir]. *)
let create ~store_dir ~replicas db =
  let pdb = Relal.Database.create () in
  Profile_store.install pdb;
  let lru = Profile_lru.create ~capacity:512 () in
  Profile_store.subscribe pdb (fun ~user _ -> Profile_lru.remove lru ~user);
  let cache =
    Perso_cache.create ~max_entries:512 ~max_bytes:(32 * 1024 * 1024)
      ~store_db:pdb db
  in
  let replica =
    span "store.open" (fun () ->
        Perso_store.Replica.open_ ~replicas (Filename.concat store_dir "shard-00"))
  in
  let t = { db; pdb; cache; lru; replica; wal_bytes = []; expansions = []; miss_s = [] } in
  let b = Perso_store.Backend.of_replica replica in
  let save ~user ~revision entries =
    let w0 = (Perso_store.Replica.stats replica).wal_bytes in
    span "store.append" (fun () -> b.save ~user ~revision entries);
    let w1 = (Perso_store.Replica.stats replica).wal_bytes in
    if w1 > w0 then t.wal_bytes <- (w1 - w0) :: t.wal_bytes
  in
  span "profile_store.restore" (fun () -> Profile_store.restore pdb { b with save });
  t

(* Split "[ a, 0.9 ] [ b, 1 ]" into one entry per line, as the server
   does before Profile.of_string. *)
let entries_text entries =
  String.split_on_char ']' entries
  |> List.filter_map (fun chunk ->
         let chunk = String.trim chunk in
         if chunk = "" then None else Some (chunk ^ " ]"))
  |> String.concat "\n"

let personalize t ~user sql =
  let profile =
    let revision =
      span "profile_store.revision" (fun () -> Profile_store.revision t.pdb ~user)
    in
    match span "profile_lru.find" (fun () -> Profile_lru.find t.lru ~user ~revision) with
    | Some p -> p
    | None -> (
        match span "profile_store.load_r" (fun () -> Profile_store.load_r t.pdb ~user) with
        | Ok p ->
            span "profile_lru.put" (fun () -> Profile_lru.put t.lru ~user ~revision p);
            p
        | Error e -> failwith ("trace: " ^ Error.to_string e))
  in
  let q = span "sql_parser.parse" (fun () -> Relal.Sql_parser.parse sql) in
  let c0 = now () in
  let outcome, src =
    span "perso_cache.personalize" (fun () ->
        Perso_cache.personalize t.cache ~user profile q)
  in
  if src <> Perso_cache.Hit then t.miss_s <- (now () -. c0) :: t.miss_s;
  let result = span "exec.personalized" (fun () -> Personalize.execute t.db outcome) in
  (profile, q, src, result)

(* The cold plan of a cache miss, layer by layer, off the request's
   clock. *)
let aside_cold t profile q =
  span "aside" (fun () ->
      let bound = span "binder.bind" (fun () -> Relal.Binder.bind t.db q) in
      let qg = span "qgraph.of_query" (fun () -> Qgraph.of_query t.db bound) in
      let g = span "pgraph.of_profile" (fun () -> Pgraph.of_profile profile) in
      let stats = Select.fresh_stats () in
      let selected =
        span "select.select" (fun () ->
            Select.select ~stats t.db g qg Personalize.default_params.k)
      in
      t.expansions <- stats.Select.expansions :: t.expansions;
      ignore
        (span "personalize.integrate_selected" (fun () ->
             Personalize.integrate_selected t.db qg ~stats selected)
          : Personalize.outcome))

type answer = {
  digest : Digest.t;
  bytes : int;
  rows : int;  (** result rows; 0 for saves *)
  request_s : float;  (** the "request" root span *)
}

let run t ~req ~phase line =
  cur_req := req;
  cur_phase := phase;
  let b = Buffer.create 4096 in
  let t0 = now () in
  let rows, cold =
    span "request" (fun () ->
        match span "protocol.parse_command" (fun () -> Protocol.parse_command line) with
        | Ok (Protocol.Personalize { user; sql }) ->
            let profile, q, src, result = personalize t ~user sql in
            span "protocol.bprint_rows" (fun () ->
                Protocol.bprint_rows b ~notes:[] result);
            ( List.length result.Relal.Exec.rows,
              if src = Perso_cache.Hit then None else Some (profile, q) )
        | Ok (Protocol.Profile_save { user; entries }) ->
            let p =
              match span "profile.of_string" (fun () -> Profile.of_string (entries_text entries)) with
              | Ok p -> p
              | Error m -> failwith ("trace: " ^ m)
            in
            span "profile_store.save" (fun () -> Profile_store.save t.pdb ~user p);
            span "protocol.bprint_message" (fun () ->
                Protocol.bprint_message b
                  (Printf.sprintf "saved user=%s entries=%d" user (Profile.cardinal p)));
            (0, None)
        | Ok _ | Error _ -> failwith ("trace: unexpected request " ^ line))
  in
  let request_s = now () -. t0 in
  Option.iter (fun (p, q) -> aside_cold t p q) cold;
  cur_req := -1;
  { digest = Digest.string (Buffer.contents b); bytes = Buffer.length b; rows; request_s }

(* Plain (unpersonalized) execution of each template, median of 3. *)
let plain_ms t sqls =
  cur_phase := "plain";
  Array.map
    (fun sql ->
      let q = Relal.Binder.bind t.db (Relal.Sql_parser.parse sql) in
      let times =
        List.init 3 (fun _ ->
            let t0 = now () in
            ignore (span "exec.run" (fun () -> Relal.Exec.run t.db q) : Relal.Exec.result);
            now () -. t0)
        |> List.sort compare
      in
      List.nth times 1 *. 1000.)
    sqls

let close t = Perso_store.Replica.close t.replica

(* ------------------------------ reduction ------------------------------ *)

(* Self time of every span: its duration minus its children's. *)
let self_times () =
  let child = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (Option.value ~default:0. (Hashtbl.find_opt child s.parent) +. (s.t1 -. s.t0)))
    !spans;
  List.map
    (fun s ->
      (s, s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    !spans

let write_tsv path selfs =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "req\tphase\tid\tparent\tname\tstart_us\tdur_us\tself_us\n";
      let base = List.fold_left (fun m (s, _) -> Float.min m s.t0) infinity selfs in
      List.iter
        (fun (s, self) ->
          Printf.fprintf oc "%d\t%s\t%d\t%d\t%s\t%.1f\t%.1f\t%.1f\n" s.req s.phase
            s.id s.parent s.name
            ((s.t0 -. base) *. 1e6)
            ((s.t1 -. s.t0) *. 1e6)
            (self *. 1e6))
        (List.sort (fun (a, _) (b, _) -> compare a.id b.id) selfs))
