(* Multicore data-parallel execution and the sharded profile store:
   byte-identity of parallel evaluation at several domain counts,
   shared-counter budget accounting under partitioned loops (the
   no-double-count regression), chaos fault-schedule parity between
   sequential and parallel runs, and a threaded hammer on a sharded
   server with the cross-shard HEALTH ledger audit. *)

open Perso_server

(* Retry backoff must not cost wall-clock in tests. *)
let () = Relal.Chaos.set_sleep ignore

let with_domains d f =
  if d <= 1 then f ()
  else begin
    let pool = Putil.Dpool.create ~domains:d in
    Relal.Exec.set_pool (Some pool);
    Fun.protect
      ~finally:(fun () ->
        Relal.Exec.set_pool None;
        Putil.Dpool.shutdown pool)
      f
  end

let domain_counts = [ 1; 2; 4; 8 ]

(* ----------------------- determinism: §7 workload --------------------- *)

(* Structural equality of whole results: same column names, same rows,
   same order — the byte-identity contract of Exec.set_pool. *)
let check_identical label (seq : Relal.Exec.result) (par : Relal.Exec.result) =
  if seq <> par then
    Alcotest.failf "%s: parallel result differs from sequential" label

let test_workload_identical () =
  let db = Moviedb.Datagen.(generate (scale ~seed:7 800)) in
  let sqls =
    Moviedb.Workload.queries db ~n:10 ~seed:5
    |> List.map Relal.Sql_print.query_to_string
  in
  (* A couple of shapes the random walk does not emit: grouped
     aggregation and an ORDER BY ... LIMIT pipeline over a join big
     enough to cross the parallel threshold. *)
  let sqls =
    sqls
    @ [
        "select g.genre, count(*) as n from movie m, genre g where m.mid = \
         g.mid group by g.genre";
        "select m.title, a.name from movie m, cast c, actor a where m.mid = \
         c.mid and c.aid = a.aid order by m.title limit 50";
        "select distinct m.year from movie m, play p where m.mid = p.mid";
      ]
  in
  let baseline = List.map (fun sql -> Relal.Engine.run_sql db sql) sqls in
  List.iter
    (fun d ->
      with_domains d (fun () ->
          List.iter2
            (fun sql expect ->
              check_identical
                (Printf.sprintf "domains=%d %s" d sql)
                expect
                (Relal.Engine.run_sql db sql))
            sqls baseline))
    domain_counts

let test_personalize_identical () =
  let db = Moviedb.Datagen.(generate (scale ~seed:9 400)) in
  let profile =
    Moviedb.Profile_gen.generate db
      { Moviedb.Profile_gen.default with seed = 10; n_selections = 40 }
  in
  let sqls =
    Moviedb.Workload.queries db ~n:4 ~seed:21
    |> List.map Relal.Sql_print.query_to_string
  in
  let run method_ sql =
    let params =
      {
        Perso.Personalize.default_params with
        k = Perso.Criteria.Top_r 10;
        method_;
        rank = method_ = `MQ;
      }
    in
    match Perso.Personalize.personalize_sql_r ~params db profile sql with
    | Ok r ->
        ( List.map Perso.Personalize.degradation_to_string
            r.Perso.Personalize.degradations,
          Option.map
            (fun (o : Perso.Personalize.outcome) ->
              Relal.Sql_print.query_to_string o.Perso.Personalize.personalized)
            r.Perso.Personalize.outcome,
          r.Perso.Personalize.result )
    | Error e -> Alcotest.failf "personalize failed: %s" (Perso.Error.to_string e)
  in
  let baseline =
    List.concat_map (fun sql -> [ run `MQ sql; run `SQ sql ]) sqls
  in
  List.iter
    (fun d ->
      with_domains d (fun () ->
          let got =
            List.concat_map (fun sql -> [ run `MQ sql; run `SQ sql ]) sqls
          in
          if got <> baseline then
            Alcotest.failf "domains=%d: personalized runs differ" d))
    domain_counts

(* Preference selection never touches the executor, and an armed pool
   must not perturb it either: Select vs Brute stays degree-identical
   with domains armed. *)
let test_select_vs_brute_under_pool () =
  with_domains 4 (fun () ->
      List.iter
        (fun seed ->
          let cfg =
            {
              Moviedb.Datagen.default with
              movies = 120;
              actors = 60;
              directors = 20;
              theatres = 8;
            }
          in
          let db = Moviedb.Datagen.generate { cfg with seed } in
          let profile =
            Moviedb.Profile_gen.generate db
              {
                Moviedb.Profile_gen.default with
                seed = seed + 1;
                n_selections = 12;
              }
          in
          let rng = Putil.Rng.create (seed + 2) in
          let q = Relal.Binder.bind db (Moviedb.Workload.random_query db rng) in
          let qg = Perso.Qgraph.of_query db q in
          let g = Perso.Pgraph.of_profile profile in
          List.iter
            (fun ci ->
              let degs l =
                List.map
                  (fun (p : Perso.Path.t) ->
                    Float.round (Perso.Degree.to_float p.Perso.Path.degree *. 1e9))
                  l
              in
              let fast = Perso.Select.select db g qg ci in
              let slow = Perso.Brute.select db g qg ci in
              Alcotest.(check (list (float 0.)))
                (Printf.sprintf "seed %d" seed)
                (degs slow) (degs fast))
            [ Perso.Criteria.top_r 5; Perso.Criteria.above 0.5 ])
        [ 1; 2; 3; 4 ])

(* --------------- governor: shared counters, no double count ----------- *)

let test_governor_no_double_count () =
  let db = Moviedb.Datagen.(generate (scale ~seed:7 800)) in
  let sql =
    "select m.title, a.name from movie m, cast c, actor a where m.mid = c.mid \
     and c.aid = a.aid"
  in
  let budget rows =
    { Relal.Governor.deadline_ms = None; max_rows = rows; max_expansions = None }
  in
  (* Measure the true charge with an unbounded governor. *)
  let total =
    let gov = Relal.Governor.start (budget None) in
    ignore (Relal.Engine.run_sql ~gov db sql : Relal.Exec.result);
    (Relal.Governor.progress gov).Relal.Governor.rows_produced
  in
  Alcotest.(check bool) "query is big enough to partition" true (total > 4096);
  let charge_at d limit =
    with_domains d (fun () ->
        let gov = Relal.Governor.start (budget (Some limit)) in
        match Relal.Engine.run_sql ~gov db sql with
        | (_ : Relal.Exec.result) -> `Completed
        | exception Relal.Governor.Exhausted _ -> `Exhausted)
  in
  List.iter
    (fun d ->
      (* A limit equal to the true total must not trip: partitioned
         loops charge the shared counters exactly once per row.  Any
         double counting (the old per-fork re-add bug) trips it. *)
      (match charge_at d total with
      | `Completed -> ()
      | `Exhausted ->
          Alcotest.failf "domains=%d: rows double-counted (limit=total tripped)"
            d);
      match charge_at d (total - 1) with
      | `Exhausted -> ()
      | `Completed ->
          Alcotest.failf "domains=%d: limit below total did not trip" d)
    domain_counts

(* --------------------- chaos: fault-schedule parity ------------------- *)

(* Chaos points are crossed on the caller thread, once per operator,
   outside the chunk loops — so an armed seed injects the same fault at
   the same point whether or not a pool is armed, and the typed outcome
   must match exactly. *)
let test_chaos_parity () =
  let db = Moviedb.Datagen.(generate (scale ~seed:3 120)) in
  let sqls =
    Moviedb.Workload.queries db ~n:6 ~seed:13
    |> List.map Relal.Sql_print.query_to_string
  in
  let outcome seed domains sql =
    ignore (Relal.Chaos.arm ~seed ~p:0.15 () : Relal.Chaos.stats);
    Fun.protect ~finally:Relal.Chaos.disarm (fun () ->
        with_domains domains (fun () ->
            match Perso.Error.guard (fun () -> Relal.Engine.run_sql db sql) with
            | Ok r -> Ok r
            | Error e -> Error (Perso.Error.to_string e)))
  in
  let faults = ref 0 in
  for seed = 0 to 7 do
    List.iter
      (fun sql ->
        let seq = outcome seed 1 sql in
        let par = outcome seed 4 sql in
        (match seq with Error _ -> incr faults | Ok _ -> ());
        if seq <> par then
          Alcotest.failf "seed=%d: sequential and parallel outcomes differ" seed)
      sqls
  done;
  Alcotest.(check bool) "some seeds actually injected faults" true (!faults > 0)

(* ------------------ sharded store: threaded hammer -------------------- *)

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "perso_par_%d_%d.sock" (Unix.getpid ()) !n)

let stat name stats =
  match List.assoc_opt name stats with
  | Some v -> int_of_string v
  | None -> Alcotest.failf "HEALTH missing %s" name

let test_sharded_hammer () =
  let n_threads = 8 and per_thread = 15 and shards = 4 in
  let db = Moviedb.Datagen.(generate (scale ~seed:7 100)) in
  let socket = fresh_socket () in
  let cfg =
    {
      (Server_core.default_config ~socket_path:socket) with
      Server_core.workers = 3;
      queue_capacity = 8;
      deadline_ms = Some 2_000.;
      shards;
    }
  in
  let t = Server.start cfg db in
  Fun.protect
    ~finally:(fun () ->
      ignore (Server.stop t : Server_core.drain_outcome);
      Relal.Chaos.disarm ())
  @@ fun () ->
  (* Worker systhreads race on the one ambient pool; losers fall back
     to their sequential loops, which produce the same bytes. *)
  with_domains 4 @@ fun () ->
  let queries =
    Moviedb.Workload.queries db ~n:per_thread ~seed:11
    |> List.map Relal.Sql_print.query_to_string
    |> Array.of_list
  in
  ignore (Relal.Chaos.arm ~seed:1337 ~p:0.05 () : Relal.Chaos.stats);
  let ok = Atomic.make 0 and failed = Atomic.make 0 and broken = Atomic.make 0 in
  let worker tid =
    let c = Client.connect socket in
    for i = 0 to per_thread - 1 do
      let sql = queries.(i mod Array.length queries) in
      let user = Printf.sprintf "user%d" tid in
      let cmd =
        match i mod 4 with
        | 0 ->
            Printf.sprintf
              "PROFILE SAVE %s [ GENRE.genre = 'comedy', 0.9 ] [ MOVIE.mid = \
               GENRE.mid, 0.8 ]"
              user
        | 1 -> Printf.sprintf "PERSONALIZE %s %s" user sql
        | 2 -> Printf.sprintf "PROFILE LOAD %s" user
        | _ -> "RUN " ^ sql
      in
      match Client.request c cmd with
      | Ok (Protocol.Rows _) | Ok (Protocol.Message _) -> Atomic.incr ok
      | Ok (Protocol.Failed { code; _ }) when code >= 1 && code <= 5 ->
          Atomic.incr failed
      | Ok _ | Error _ -> Atomic.incr broken
    done;
    Client.close c
  in
  let threads = List.init n_threads (fun tid -> Thread.create worker tid) in
  List.iter Thread.join threads;
  Relal.Chaos.disarm ();
  let total = n_threads * per_thread in
  Alcotest.(check int) "no untyped outcomes" 0 (Atomic.get broken);
  Alcotest.(check int) "every request answered" total
    (Atomic.get ok + Atomic.get failed);
  Alcotest.(check bool) "some requests succeeded" true (Atomic.get ok > 0);
  let c = Client.connect socket in
  let stats =
    match Client.request c "HEALTH" with
    | Ok (Protocol.Stats s) -> s
    | _ -> Alcotest.fail "HEALTH failed"
  in
  Client.close c;
  Alcotest.(check int) "shards reported" shards (stat "shards" stats);
  Alcotest.(check int) "ledger: queue idle" 0 (stat "queue_depth" stats);
  Alcotest.(check int) "ledger: nothing in flight" 0 (stat "in_flight" stats);
  Alcotest.(check int) "ledger: accepted = ok + err + expired"
    (stat "accepted" stats)
    (stat "completed_ok" stats
    + stat "completed_err" stats
    + stat "shed_expired" stats);
  (* The cross-shard audit: the cache columns are summed over every
     shard's cache, and together they must still account for each
     completed PERSONALIZE exactly once. *)
  Alcotest.(check int) "ledger: pers outcomes = summed shard cache sources"
    (stat "pers_ok" stats + stat "pers_err" stats)
    (stat "cache_hit" stats
    + stat "cache_miss" stats
    + stat "cache_incremental" stats
    + stat "cache_bypass" stats);
  let outcome = Server.stop t in
  Alcotest.(check bool) "drains clean" true outcome.Server_core.drained

let () =
  Alcotest.run "par"
    [
      ( "determinism",
        [
          Alcotest.test_case "workload byte-identical" `Quick
            test_workload_identical;
          Alcotest.test_case "personalize byte-identical" `Quick
            test_personalize_identical;
          Alcotest.test_case "select vs brute under pool" `Quick
            test_select_vs_brute_under_pool;
        ] );
      ( "governor",
        [
          Alcotest.test_case "no double count across domains" `Quick
            test_governor_no_double_count;
        ] );
      ( "chaos",
        [ Alcotest.test_case "fault-schedule parity" `Quick test_chaos_parity ]
      );
      ( "sharded-store",
        [ Alcotest.test_case "threaded hammer" `Quick test_sharded_hammer ] );
    ]
