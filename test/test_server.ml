(* Concurrent personalization server: breaker state machine, reader/
   writer isolation, admission control + shedding, graceful drain, and
   the N-thread chaos hammer of the resilience contract. *)

open Perso_server

(* Retry backoff must not cost wall-clock in tests. *)
let () = Relal.Chaos.set_sleep ignore

(* ------------------------------ breaker ------------------------------ *)

(* A hand-cranked clock makes trip→cooldown→probe cycles deterministic. *)
let fake_clock start =
  let now = ref start in
  ((fun () -> !now), fun ms -> now := !now +. ms)

let test_breaker_trips () =
  let now, advance = fake_clock 0. in
  let b = Breaker.create ~now ~threshold:3 ~cooldown_ms:100. () in
  Alcotest.(check bool) "closed allows" true (Breaker.allow b);
  Breaker.failure b;
  Breaker.failure b;
  Alcotest.(check string) "two failures stay closed" "closed"
    (Breaker.state_name (Breaker.state b));
  Breaker.failure b;
  Alcotest.(check string) "third failure trips" "open"
    (Breaker.state_name (Breaker.state b));
  Alcotest.(check bool) "open rejects" false (Breaker.allow b);
  Alcotest.(check int) "one trip" 1 (Breaker.trips b);
  advance 99.;
  Alcotest.(check bool) "still cooling" false (Breaker.allow b);
  advance 1.;
  Alcotest.(check string) "cooled to half-open" "half-open"
    (Breaker.state_name (Breaker.state b))

let test_breaker_halfopen_probe () =
  let now, advance = fake_clock 0. in
  let b = Breaker.create ~now ~threshold:1 ~cooldown_ms:50. () in
  Breaker.failure b;
  advance 50.;
  Alcotest.(check bool) "probe admitted" true (Breaker.allow b);
  Alcotest.(check bool) "single probe slot" false (Breaker.allow b);
  Breaker.success b;
  Alcotest.(check string) "probe success closes" "closed"
    (Breaker.state_name (Breaker.state b));
  Alcotest.(check bool) "closed again" true (Breaker.allow b)

let test_breaker_halfopen_reopen () =
  let now, advance = fake_clock 0. in
  let b = Breaker.create ~now ~threshold:1 ~cooldown_ms:50. () in
  Breaker.failure b;
  advance 50.;
  Alcotest.(check bool) "probe admitted" true (Breaker.allow b);
  Breaker.failure b;
  Alcotest.(check string) "probe failure reopens" "open"
    (Breaker.state_name (Breaker.state b));
  Alcotest.(check int) "second trip counted" 2 (Breaker.trips b);
  advance 49.;
  Alcotest.(check bool) "cooldown restarted" false (Breaker.allow b);
  advance 1.;
  Alcotest.(check bool) "half-open again" true (Breaker.allow b)

(* ------------------------------ rwlock ------------------------------- *)

let test_rwlock_write_exclusive () =
  (* A non-atomic read-modify-write counter: without the write lock the
     8×500 increments would lose updates under contention. *)
  let lock = Rwlock.create () in
  let counter = ref 0 in
  let writers =
    List.init 8 (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to 500 do
              Rwlock.with_write lock (fun () ->
                  let v = !counter in
                  Thread.yield ();
                  counter := v + 1)
            done)
          ())
  in
  List.iter Thread.join writers;
  Alcotest.(check int) "no lost updates" 4000 !counter

let test_rwlock_readers_shared () =
  let lock = Rwlock.create () in
  let m = Mutex.create () in
  let active = ref 0 and max_active = ref 0 in
  let readers =
    List.init 4 (fun _ ->
        Thread.create
          (fun () ->
            (* A real sleep inside the read section parks this thread
               with the lock held: if readers are truly shared the four
               of them must pile up inside. *)
            for _ = 1 to 5 do
              Rwlock.with_read lock (fun () ->
                  Mutex.lock m;
                  incr active;
                  if !active > !max_active then max_active := !active;
                  Mutex.unlock m;
                  Thread.delay 0.01;
                  Mutex.lock m;
                  decr active;
                  Mutex.unlock m)
            done)
          ())
  in
  List.iter Thread.join readers;
  Alcotest.(check bool) "readers overlapped" true (!max_active > 1)

(* --------------------------- server helpers -------------------------- *)

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "perso_test_%d_%d.sock" (Unix.getpid ()) !n)

let with_server ?(movies = 0) cfg_of f =
  let db =
    if movies = 0 then Moviedb.Personas.tiny_db ()
    else Moviedb.Datagen.(generate (scale ~seed:7 movies))
  in
  let socket_path = fresh_socket () in
  let t = Server.start (cfg_of (Server_core.default_config ~socket_path)) db in
  Fun.protect
    ~finally:(fun () ->
      ignore (Server.stop t : Server_core.drain_outcome);
      Relal.Chaos.disarm ())
    (fun () -> f t socket_path)

let stat name stats =
  match List.assoc_opt name stats with
  | Some v -> int_of_string v
  | None -> Alcotest.failf "HEALTH missing %s" name

let health_of socket =
  let c = Client.connect socket in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      match Client.request c "HEALTH" with
      | Ok (Protocol.Stats stats) -> stats
      | other ->
          Alcotest.failf "HEALTH failed: %s"
            (match other with Error e -> e | Ok _ -> "wrong response shape"))

(* A six-way cross product with no join predicate: the executor grinds
   cartesian batches until the governor's deadline trips, so the request
   occupies a worker for roughly its deadline (a second or two naturally
   at 12–15 movies — large enough to sequence other requests against,
   small enough that its biggest selection vector stays tens of MB).
   The tests that use it disable the server's row cap so the deadline is
   the only budget. *)
let slow_sql =
  "select count(*) as n from movie a, movie b, movie c, movie d, movie e, \
   movie f"

(* Raw connections pipeline requests that a {!Client} would serialize.
   The server has no preemption — a running query holds its loop until
   it finishes — so tests sequence against what a connection has
   already been answered instead of against sleeps or HEALTH polls. *)
type raw = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let raw_send r text =
  output_string r.oc (text ^ "\n");
  flush r.oc

let raw_reply r = Protocol.read_response r.ic
let raw_close r = try Unix.close r.fd with Unix.Unix_error _ -> ()

let expect_pong what = function
  | Ok (Protocol.Message "pong") -> ()
  | _ -> Alcotest.failf "%s: expected pong" what

(* A connection the server has already served once: its task is parked
   on the socket, so bytes sent on it later are read in the first loop
   turn after whatever currently holds the loop. *)
let ready_conn socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let r =
    { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  in
  raw_send r "PING";
  expect_pong "ready_conn" (raw_reply r);
  r

(* Send PING and [request] in one write and wait for the pong.  The
   server reads both lines at once and submits [request] right after
   answering the PING, before it polls any socket again, so once the
   pong is here the request is in flight on a worker. *)
let start_in_flight r request =
  output_string r.oc ("PING\n" ^ request ^ "\n");
  flush r.oc;
  expect_pong "start_in_flight" (raw_reply r)

let overloaded_reply what = function
  | Ok (Protocol.Failed { family; code; message }) ->
      Alcotest.(check string) (what ^ ": family") "overloaded" family;
      Alcotest.(check int) (what ^ ": overloaded exit code") 5 code;
      Alcotest.(check bool) (what ^ ": message") true (String.length message > 0)
  | Ok _ -> Alcotest.failf "%s: expected an overloaded shed, got a result" what
  | Error e -> Alcotest.failf "%s: expected an overloaded shed, got %s" what e

(* ---------------------------- admission ------------------------------ *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_shed_and_expiry () =
  with_server ~movies:15
    (fun cfg ->
      {
        cfg with
        Server_core.workers = 1;
        queue_capacity = 1;
        max_rows = None;
        max_expansions = None;
      })
    (fun _t socket ->
      let z = ready_conn socket in
      let abc = List.init 3 (fun _ -> ready_conn socket) in
      (* Z holds the loop while three identical slow requests arrive, so
         all three are read in one turn once it finishes.  Each computes
         its deadline on arrival.  The first to submit occupies the
         single worker until its 400 ms deadline trips; the second takes
         the only queue slot and its deadline expires there; the third
         finds the queue full.  Which connection plays which part is up
         to the loop, the three outcomes are not. *)
      start_in_flight z ("DEADLINE-MS 300\nRUN " ^ slow_sql);
      List.iter (fun r -> raw_send r ("DEADLINE-MS 400\nRUN " ^ slow_sql)) abc;
      let outcome what = function
        | Ok (Protocol.Failed { family = "resource-exhausted"; _ })
        | Ok (Protocol.Rows _) (* finished within budget *) ->
            "ran"
        | Ok (Protocol.Failed { family = "overloaded"; code = 5; message })
          when contains message "expired while queued" ->
            "expired"
        | Ok (Protocol.Failed { family = "overloaded"; code = 5; message })
          when contains message "queue full" ->
            "queue-full"
        | Ok (Protocol.Failed { message; _ }) ->
            Alcotest.failf "%s: unexpected error %s" what message
        | Ok _ -> Alcotest.failf "%s: wrong reply shape" what
        | Error e -> Alcotest.failf "%s: %s" what e
      in
      Alcotest.(check string) "Z ran" "ran" (outcome "Z" (raw_reply z));
      Alcotest.(check (list string))
        "one ran, one expired in the queue, one found it full"
        [ "expired"; "queue-full"; "ran" ]
        (List.sort compare (List.map (fun r -> outcome "A/B/C" (raw_reply r)) abc));
      List.iter raw_close (z :: abc);
      let stats = health_of socket in
      Alcotest.(check int) "one queue-full shed" 1 (stat "shed_queue_full" stats);
      Alcotest.(check int) "one expiry shed" 1 (stat "shed_expired" stats))

let test_budget_capped_by_server () =
  with_server ~movies:120
    (fun cfg ->
      { cfg with Server_core.max_rows = Some 50; deadline_ms = None;
        max_expansions = None })
    (fun _t socket ->
      let c = Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (* The client asks for a huge row budget; the server's 50-row
             cap must win. *)
          match Client.request ~max_rows:100_000_000 c ("RUN " ^ slow_sql) with
          | Ok (Protocol.Failed { family; code; _ }) ->
              Alcotest.(check string) "capped to resource exhaustion"
                "resource-exhausted" family;
              Alcotest.(check int) "resource exit code" 3 code
          | other ->
              Alcotest.failf "expected resource-exhausted, got %s"
                (match other with
                | Ok _ -> "a result"
                | Error e -> e)))

(* ------------------------- breaker integration ----------------------- *)

let request_exn c ?deadline_ms cmd =
  match Client.request ?deadline_ms c cmd with
  | Ok r -> r
  | Error e -> Alcotest.failf "request failed: %s" e

let test_breaker_serves_unpersonalized () =
  with_server
    (fun cfg ->
      { cfg with Server_core.breaker_threshold = 2; breaker_cooldown_ms = 300. })
    (fun _t socket ->
      let c = Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let q =
            "PERSONALIZE julie select mv.title from movie mv, play pl where \
             mv.mid = pl.mid and pl.date = '2003-07-02'"
          in
          ignore
            (request_exn c
               "PROFILE SAVE julie [ GENRE.genre = 'comedy', 0.9 ] [ \
                MOVIE.mid = GENRE.mid, 0.9 ]");
          (match request_exn c q with
          | Protocol.Rows { notes = []; cols; _ } ->
              Alcotest.(check (list string)) "personalized answer is ranked"
                [ "title"; "doi" ] cols
          | _ -> Alcotest.fail "expected a clean personalized answer");
          (* Permanent faults at p=1: every profile load fails, and two
             consecutive failures trip the breaker.  (The queries' own
             scans fault too, so these replies are storage errors — what
             matters here is the trip.) *)
          ignore
            (Relal.Chaos.arm ~transient_ratio:0. ~seed:3 ~p:1.0 ()
              : Relal.Chaos.stats);
          for _ = 1 to 2 do
            match request_exn c q with
            | Protocol.Failed _ | Protocol.Rows _ -> ()
            | _ -> Alcotest.fail "expected a typed fault or degraded rows"
          done;
          Relal.Chaos.disarm ();
          (* The breaker is now open and short-circuits the load: with
             the faults lifted the query itself runs clean and is served
             unpersonalized with an explanatory note.  PROFILE SAVE is
             refused with a typed error. *)
          (match request_exn c q with
          | Protocol.Rows { notes = [ n ]; cols; _ } ->
              Alcotest.(check string) "breaker-open note"
                "unpersonalized: profile-store circuit breaker open" n;
              Alcotest.(check (list string)) "plain answer shape" [ "title" ]
                cols
          | _ -> Alcotest.fail "open breaker must serve plain answers");
          (match request_exn c "PROFILE SAVE julie [ GENRE.genre = 'drama', 1 ]" with
          | Protocol.Failed { family = "overloaded"; code = 5; _ } -> ()
          | _ -> Alcotest.fail "open breaker must refuse writes");
          let stats = health_of socket in
          Alcotest.(check bool) "trip counted" true
            (stat "breaker_trips" stats >= 1);
          Alcotest.(check bool) "plain-served counted" true
            (stat "unpersonalized_breaker" stats >= 1);
          Alcotest.(check bool) "refused save counted" true
            (stat "shed_breaker" stats >= 1);
          (* Let the cooldown pass: the half-open probe's load succeeds
             and personalization returns. *)
          Thread.delay 0.35;
          match request_exn c q with
          | Protocol.Rows { notes = []; cols; _ } ->
              Alcotest.(check (list string)) "personalization recovered"
                [ "title"; "doi" ] cols
          | _ -> Alcotest.fail "breaker must close after a good probe"))

(* ---------------------------- graceful drain ------------------------- *)

let test_graceful_drain () =
  with_server ~movies:15
    (fun cfg ->
      {
        cfg with
        Server_core.workers = 2;
        drain_ms = 5_000.;
        max_rows = None;
        max_expansions = None;
      })
    (fun t socket ->
      (* Slow requests in flight, then a drain: they must still get
         answers (or a typed shed), and new work must be refused.  R1 is
         in flight once its pipelined PING is answered; R2, the stop,
         a HEALTH probe and new work all arrive while R1 holds the
         loop, so the server sees them in its first turn after R1. *)
      let r1 = ready_conn socket and r2 = ready_conn socket in
      let probe = ready_conn socket and late = ready_conn socket in
      start_in_flight r1 ("DEADLINE-MS 600\nRUN " ^ slow_sql);
      raw_send r2 ("DEADLINE-MS 600\nRUN " ^ slow_sql);
      Server.request_stop t;
      raw_send probe "HEALTH";
      raw_send late "RUN select count(*) as n from movie m";
      List.iter
        (fun r ->
          match raw_reply r with
          | Ok (Protocol.Rows _) | Ok (Protocol.Failed _) -> ()
          | _ -> Alcotest.fail "in-flight request lost during drain")
        [ r1; r2 ];
      (* Admission is closed while draining — but the control plane and
         the drain itself keep working. *)
      (match raw_reply probe with
      | Ok (Protocol.Stats stats) ->
          Alcotest.(check string) "HEALTH while draining" "draining"
            (List.assoc "state" stats)
      | _ -> Alcotest.fail "HEALTH must answer during the drain");
      (match raw_reply late with
      | Ok (Protocol.Failed { family = "overloaded"; _ }) -> ()
      | _ -> Alcotest.fail "draining server must shed new work");
      List.iter raw_close [ r1; r2; probe; late ];
      let outcome = Server.stop t in
      Alcotest.(check bool) "drained within deadline" true
        outcome.Server_core.drained;
      Alcotest.(check int) "nothing abandoned" 0 outcome.Server_core.shed_at_stop)

(* ------------------------------- hammer ------------------------------ *)

(* The resilience acceptance test: 10 threads of mixed RUN / PERSONALIZE
   / PROFILE SAVE against a small pool under 5% seeded faults.  Every
   request must end in a result or a typed error, the server must stay
   live, and the HEALTH ledger must account for every request. *)
let test_hammer () =
  let n_threads = 10 and per_thread = 20 in
  with_server ~movies:100
    (fun cfg ->
      {
        cfg with
        Server_core.workers = 3;
        queue_capacity = 4;
        deadline_ms = Some 2_000.;
        breaker_threshold = 3;
        breaker_cooldown_ms = 50.;
      })
    (fun t socket ->
      let db_for_queries = Moviedb.Datagen.(generate (scale ~seed:7 100)) in
      let queries =
        List.map Relal.Sql_print.query_to_string
          (Moviedb.Workload.queries db_for_queries ~n:per_thread ~seed:11)
        |> Array.of_list
      in
      ignore (Relal.Chaos.arm ~seed:1337 ~p:0.05 () : Relal.Chaos.stats);
      let ok = Atomic.make 0
      and failed = Atomic.make 0
      and overloaded = Atomic.make 0
      and broken = Atomic.make 0 in
      let worker tid =
        let c = Client.connect socket in
        for i = 0 to per_thread - 1 do
          let sql = queries.(i mod Array.length queries) in
          let cmd =
            match i mod 5 with
            | 0 ->
                Printf.sprintf
                  "PROFILE SAVE user%d [ GENRE.genre = 'comedy', 0.9 ] [ \
                   MOVIE.mid = GENRE.mid, 0.8 ]"
                  tid
            | 1 -> Printf.sprintf "PERSONALIZE user%d %s" tid sql
            | _ -> "RUN " ^ sql
          in
          (* A zero deadline is expired by the time a worker pops it:
             deterministic shedding mixed into the stream. *)
          let deadline_ms = if i mod 7 = 0 then Some 0. else None in
          match Client.request ?deadline_ms c cmd with
          | Ok (Protocol.Rows _) | Ok (Protocol.Message _) ->
              Atomic.incr ok
          | Ok (Protocol.Failed { family = "overloaded"; code = 5; _ }) ->
              Atomic.incr overloaded;
              Atomic.incr failed
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
      Alcotest.(check int) "every request accounted (client side)" total
        (Atomic.get ok + Atomic.get failed);
      Alcotest.(check bool) "some requests succeeded" true (Atomic.get ok > 0);
      Alcotest.(check bool) "saturation shed with typed Overloaded" true
        (Atomic.get overloaded > 0);
      (* The server is still live and observable after the storm. *)
      let c = Client.connect socket in
      (match Client.request c "PING" with
      | Ok (Protocol.Message "pong") -> ()
      | _ -> Alcotest.fail "server must stay live after the hammer");
      Client.close c;
      let stats = health_of socket in
      Alcotest.(check int) "ledger: queue idle" 0 (stat "queue_depth" stats);
      Alcotest.(check int) "ledger: nothing in flight" 0
        (stat "in_flight" stats);
      Alcotest.(check int) "ledger: accepted = ok + err + expired"
        (stat "accepted" stats)
        (stat "completed_ok" stats
        + stat "completed_err" stats
        + stat "shed_expired" stats);
      Alcotest.(check int) "ledger: arrivals = accepted + shed"
        total
        (stat "accepted" stats
        + stat "shed_queue_full" stats
        + stat "shed_draining" stats);
      Alcotest.(check int) "ledger: server ok = client ok"
        (Atomic.get ok)
        (stat "completed_ok" stats);
      let outcome = Server.stop t in
      Alcotest.(check bool) "drains clean after the hammer" true
        outcome.Server_core.drained)

(* --------------------------- hostile clients ------------------------- *)

(* More connections than the server serves at once, all opened from
   this thread.  Each one is either answered or refused at accept with
   a typed overloaded line; the refusals are counted in HEALTH and the
   server keeps serving.  (In process, the clients' own fds push the
   server's past select's FD_SETSIZE early, so refusals start before
   the count cap.) *)
let test_connection_cap () =
  with_server (fun cfg -> cfg) (fun _t socket ->
      let probe = ready_conn socket in
      let n = Server.max_connections + 100 in
      let conns =
        List.init n (fun _ ->
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX socket);
            {
              fd;
              ic = Unix.in_channel_of_descr fd;
              oc = Unix.out_channel_of_descr fd;
            })
      in
      let refused =
        List.fold_left
          (fun refused r ->
            (* A refused connection is already closed: the write may
               fail, its refusal line is still there to read. *)
            (try raw_send r "PING" with Sys_error _ -> ());
            match raw_reply r with
            | Ok (Protocol.Message "pong") -> refused
            | reply ->
                overloaded_reply "refused connection" reply;
                refused + 1)
          0 conns
      in
      Alcotest.(check bool)
        (Printf.sprintf "at least the excess refused (%d of %d)" refused n)
        true
        (refused >= n - Server.max_connections);
      List.iter raw_close conns;
      raw_send probe "HEALTH";
      (match raw_reply probe with
      | Ok (Protocol.Stats stats) ->
          Alcotest.(check int) "refusals counted" refused
            (stat "refused_conn_limit" stats)
      | _ -> Alcotest.fail "HEALTH failed after the flood");
      raw_close probe;
      let c = Client.connect socket in
      expect_pong "after the flood" (Client.request c "PING");
      Client.close c)

(* A line that never ends is cut off at Protocol.max_line_bytes with a
   typed error and a close, while other connections are served. *)
let test_overlong_line () =
  with_server (fun cfg -> cfg) (fun _t socket ->
      let giant = ready_conn socket and other = ready_conn socket in
      (* A line split across writes is reassembled. *)
      output_string giant.oc "PI";
      flush giant.oc;
      raw_send giant "NG";
      expect_pong "split line" (raw_reply giant);
      let half = Protocol.max_line_bytes / 2 in
      output_string giant.oc (String.make half 'x');
      flush giant.oc;
      raw_send other "PING";
      expect_pong "second connection during the long line" (raw_reply other);
      (try
         output_string giant.oc
           (String.make (Protocol.max_line_bytes - half + 1) 'x');
         flush giant.oc
       with Sys_error _ -> ());
      (match raw_reply giant with
      | Ok (Protocol.Failed { family = "parse"; code = 1; message }) ->
          Alcotest.(check bool) ("names the limit: " ^ message) true
            (String.length message > 0)
      | _ -> Alcotest.fail "expected a typed parse error for the long line");
      (match raw_reply giant with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "the long line's connection must be closed");
      raw_close giant;
      raw_send other "HEALTH";
      (match raw_reply other with
      | Ok (Protocol.Stats stats) ->
          Alcotest.(check int) "long line counted" 1
            (stat "refused_line_too_long" stats)
      | _ -> Alcotest.fail "HEALTH failed");
      raw_close other)

(* ------------------------ durable store parity ----------------------- *)

let fresh_store_root =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "perso_test_store_%d_%d" (Unix.getpid ()) !n)
    in
    dir

let render_response = function
  | Ok (Protocol.Rows { notes; cols; rows }) ->
      String.concat "\n"
        (notes @ [ String.concat "|" cols ] @ List.map (String.concat "|") rows)
  | Ok (Protocol.Stats kvs) ->
      String.concat "\n" (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)
  | Ok (Protocol.Message m) -> "msg:" ^ m
  | Ok (Protocol.Failed { family; code; message }) ->
      Printf.sprintf "failed:%s:%d:%s" family code message
  | Error e -> "err:" ^ e

let pers_sql =
  "select mv.title from movie mv, play pl where mv.mid = pl.mid and pl.date \
   = '2003-07-02'"

let parity_script =
  [
    "PROFILE SAVE julie [ GENRE.genre = 'comedy', 0.9 ] [ MOVIE.mid = \
     GENRE.mid, 0.9 ]";
    "PROFILE SAVE bob [ ACTOR.name = 'N. Kidman', 0.7 ] [ CAST.aid = \
     ACTOR.aid, 0.9 ] [ MOVIE.mid = CAST.mid, 0.9 ]";
    "PERSONALIZE julie " ^ pers_sql;
    "PROFILE LOAD julie";
    "PROFILE SAVE julie [ GENRE.genre = 'drama', 0.8 ] [ MOVIE.mid = \
     GENRE.mid, 0.9 ]";
    "PERSONALIZE julie " ^ pers_sql;
    "PERSONALIZE bob " ^ pers_sql;
    "PROFILE LOAD bob";
    "PROFILE LOAD nobody";
    "RUN select count(*) as n from movie m";
    "PROFILE SAVE julie [ not a condition, 2 ]";
  ]

let run_script socket script =
  let c = Client.connect socket in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () -> List.map (fun cmd -> render_response (Client.request c cmd)) script)

let test_disk_memory_differential () =
  (* The same traffic over the disk backend answers byte-identically to
     the memory backend, and the saved state survives a restart. *)
  let mem =
    with_server
      (fun cfg -> { cfg with Server_core.shards = 2 })
      (fun _t socket -> run_script socket parity_script)
  in
  let root = fresh_store_root () in
  Fun.protect ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote root)))
  @@ fun () ->
  let dsk =
    with_server
      (fun cfg -> { cfg with Server_core.shards = 2; store_dir = Some root })
      (fun _t socket -> run_script socket parity_script)
  in
  List.iter2
    (fun m d -> Alcotest.(check string) "memory/disk parity" m d)
    mem dsk;
  (* Restart on the same root: recovery replays the WALs; the last
     acknowledged profile is served, the in-memory-only run's state is
     gone with its process. *)
  let after_restart =
    with_server
      (fun cfg -> { cfg with Server_core.shards = 2; store_dir = Some root })
      (fun _t socket ->
        run_script socket [ "PROFILE LOAD julie"; "PERSONALIZE julie " ^ pers_sql ])
  in
  Alcotest.(check string) "personalize after restart" (List.nth mem 5)
    (List.nth after_restart 1)

let () =
  Alcotest.run "server"
    [
      ( "breaker",
        [
          Alcotest.test_case "trips after threshold" `Quick test_breaker_trips;
          Alcotest.test_case "half-open probe closes" `Quick
            test_breaker_halfopen_probe;
          Alcotest.test_case "half-open failure reopens" `Quick
            test_breaker_halfopen_reopen;
        ] );
      ( "rwlock",
        [
          Alcotest.test_case "writers exclusive" `Quick
            test_rwlock_write_exclusive;
          Alcotest.test_case "readers shared" `Quick test_rwlock_readers_shared;
        ] );
      ( "admission",
        [
          Alcotest.test_case "queue-full + expiry shedding" `Quick
            test_shed_and_expiry;
          Alcotest.test_case "client budgets capped by server" `Quick
            test_budget_capped_by_server;
        ] );
      ( "breaker-integration",
        [
          Alcotest.test_case "open breaker serves unpersonalized" `Quick
            test_breaker_serves_unpersonalized;
        ] );
      ( "drain",
        [ Alcotest.test_case "graceful drain" `Quick test_graceful_drain ] );
      ( "hammer",
        [ Alcotest.test_case "mixed load under 5% faults" `Quick test_hammer ]
      );
      ( "hostile-clients",
        [
          Alcotest.test_case "connection cap: typed refusal" `Quick
            test_connection_cap;
          Alcotest.test_case "over-long line: typed error" `Quick
            test_overlong_line;
        ] );
      ( "durable-store",
        [
          Alcotest.test_case "memory/disk parity + restart" `Quick
            test_disk_memory_differential;
        ] );
    ]
