(* The serve benchmark: one workload per run.

     pbench --workload NAME --seed N --seconds S --trace 0|1

   Builds the workload's inputs, starts perso_cli serve on them, drives
   it over two closed-loop connections, checks every reply against an
   in-process replay through the server's own core, and prints each
   metric by name with its unit.  The last line of stdout is one JSON
   object: end-to-end metrics with --trace 0, per-layer metrics with
   --trace 1.  Exits non-zero, printing no result, when it cannot run. *)

open Population

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* ------------------------------ the host ------------------------------- *)

type host = { steal : float; load1 : float; at : float }

let host () =
  let load1 = Scanf.sscanf (In_channel.with_open_text "/proc/loadavg" input_line) "%f" Fun.id in
  { steal = Wire.steal_s (); load1; at = Unix.gettimeofday () }

let command_output prog args =
  match
    let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
    let out = In_channel.input_all ic in
    (Unix.close_process_in ic, out)
  with
  | Unix.WEXITED 0, out -> Some (String.trim out)
  | _ -> None
  | exception Unix.Unix_error _ -> None

(* MD5 over the program's sources, for checkouts without git metadata. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
                   || Filename.basename p = "dune"
           then [ p ]
           else [])
  in
  files "lib" @ files "bin"
  |> List.map (fun p -> p ^ Digest.to_hex (Digest.file p))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

(* ------------------------------ the files ------------------------------ *)

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec copy_tree src dst =
  if Sys.is_directory src then begin
    Sys.mkdir dst 0o755;
    Array.iter
      (fun f -> copy_tree (Filename.concat src f) (Filename.concat dst f))
      (Sys.readdir src)
  end
  else
    Out_channel.with_open_bin dst (fun oc ->
        output_string oc (In_channel.with_open_bin src In_channel.input_all))

let mkdir_p p = if not (Sys.file_exists p) then Sys.mkdir p 0o755

(* ------------------------------ the run -------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (** what failed, first few *)
}

let fail tally fmt =
  Printf.ksprintf
    (fun m ->
      tally.failed <- tally.failed + 1;
      if List.length tally.notes < 10 then tally.notes <- m :: tally.notes)
    fmt

(* Count a socket reply: attempted, and failed unless OK with the
   replay's bytes. *)
let check tally what (r : Wire.reply) expected =
  tally.attempted <- tally.attempted + 1;
  match r.status with
  | Wire.Transport e -> fail tally "%s: transport error %s" what e
  | Wire.Err_reply fam -> fail tally "%s: ERR %s" what fam
  | Wire.Ok_reply ->
      if r.digest <> expected then fail tally "%s: reply differs from the replay" what

let ledger tally ~label h0 h1 expect =
  let d k = Wire.stat h1 k - Wire.stat h0 k in
  List.iter
    (fun (name, got, want) ->
      let got = got d in
      if got <> want then fail tally "%s ledger: %s = %d, client counted %d" label name got want)
    expect

let gc_stat log key =
  List.find_map
    (fun l ->
      match String.split_on_char ':' l with
      | [ k; v ] when String.trim k = key -> float_of_string_opt (String.trim v)
      | _ -> None)
    log
  |> Option.value ~default:0.

let print_json ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map Metric.to_json metrics))

let setup_reps = 9
let rounds = 100
let probe_block = 5

let cli = "_build/default/bin/perso_cli.exe"

let run spec ~seed ~seconds ~trace =
  let h0 = host () in
  let rev =
    if Sys.file_exists ".git" then
      Option.value ~default:"unknown" (command_output "git" [ "rev-parse"; "--short"; "HEAD" ])
    else "none (not a git checkout)"
  in
  say "# workload %s  seed %d  seconds %d  trace %b" spec.name seed seconds trace;
  say "# rev %s  sources %s  nproc %d" rev (source_digest ())
    (Domain.recommended_domain_count ());
  say "# scale: %d movies, %d users, %d templates, %d connections, zipf s=%.2f, store %s"
    spec.movies spec.users (List.length spec.templates) connections spec.zipf_s
    (match spec.store with Memory -> "memory" | Disk r -> Printf.sprintf "disk, %d replicas" r);
  let work = Filename.concat ".perfbench" spec.name in
  mkdir_p ".perfbench";
  rm_rf work;
  Sys.mkdir work 0o755;
  let socket = Filename.concat work "s.sock" in
  let pop = Population.make spec in
  let sc = Population.script pop ~seed ~seconds in
  (* -------- inputs the server starts from, built untimed -------- *)
  let dump = Filename.concat work "data" in
  let pristine = Filename.concat work "store0" in
  let replicas = match spec.store with Disk r -> r | Memory -> 1 in
  (match spec.store with
  | Memory ->
      Population.install_profiles pop.db pop.profiles;
      Relal.Csv.save_db ~dir:dump pop.db
  | Disk _ -> ());
  (* A memory-store workload's traced pipeline still writes through a
     one-replica disk store, so the store layer is priced on its saves;
     the server it is compared with keeps its profiles in memory. *)
  if spec.store <> Memory || trace then begin
    let pdb = Relal.Database.create () in
    Population.install_profiles pdb pop.profiles;
    let module S = Perso_server.Sharded_store.Make (Perso_server.Runtime.Threads) in
    S.merge_back (S.create ~persist:pristine ~replicas ~shards:1 pdb)
  end;
  let store_copies = ref 0 in
  let fresh_store () =
    incr store_copies;
    let d = Filename.concat work (Printf.sprintf "store%d" !store_copies) in
    copy_tree pristine d;
    d
  in
  let args store_dir =
    [ "--socket"; socket ]
    @ (match spec.store with
      | Memory -> [ "--data-dir"; dump ]
      | Disk _ -> [ "--movies"; string_of_int spec.movies ])
    @
    match (spec.store, store_dir) with
    | Disk r, Some d -> [ "--store"; "disk:" ^ d; "--replicas"; string_of_int r ]
    | _ -> []
  in
  let store_arg () = match spec.store with Disk _ -> Some (fresh_store ()) | Memory -> None in
  let shutdown s =
    let c = Wire.connect socket in
    ignore (Wire.request c "SHUTDOWN" : Wire.reply);
    Wire.close c;
    Wire.wait_exit s
  in
  (* -------- set-up time: several starts, median -------- *)
  let setups =
    List.init (setup_reps - 1) (fun _ ->
        let s = Wire.spawn ~cli (args (store_arg ())) in
        ignore (shutdown s);
        s.Wire.setup_s)
  in
  let main_store = store_arg () in
  let server = Wire.spawn ~cli (args main_store) in
  let setups = Array.of_list (server.Wire.setup_s :: setups) in
  let tally = { attempted = 0; failed = 0; notes = [] } in
  let c = Wire.connect_ready socket in
  let send reqs = Array.map (fun r -> (r, Wire.request c (Population.line pop r))) reqs in
  let warm = send sc.warmup in
  let hs0 = Wire.health c in
  let timed_lines = Array.map (Array.map (Population.line pop)) sc.timed in
  let timed, marks = Wire.closed_loop ~socket ~rounds timed_lines in
  let hs1 = Wire.health c in
  (* The probe is sent in blocks, with the time and host steal marked
     around each, so its blocks are set aside by the rule the rounds
     follow. *)
  let probe_blocks = (Array.length sc.probe + probe_block - 1) / probe_block in
  let block k = (k * probe_block, min probe_block (Array.length sc.probe - (k * probe_block))) in
  let mark () = (Unix.gettimeofday (), Wire.steal_s ()) in
  let probe_marks = Array.make (probe_blocks + 1) (mark ()) in
  let probe =
    Array.concat
      (List.init probe_blocks (fun k ->
           let lo, n = block k in
           let x = send (Array.sub sc.probe lo n) in
           probe_marks.(k + 1) <- mark ();
           x))
  in
  let readback_mem =
    match spec.store with Memory -> send (Array.of_list (List.map (fun u -> Load u) sc.touched)) | Disk _ -> [||]
  in
  let rss = Wire.peak_rss_mb server in
  let _, log = shutdown server in
  Wire.close c;
  (* Durability: restart on the same store, read back every saved user. *)
  let readback_disk =
    match main_store with
    | None -> [||]
    | Some d ->
        let s = Wire.spawn ~cli (args (Some d)) in
        let c = Wire.connect_ready socket in
        let r = Array.map (fun u -> (Load u, Wire.request c (Population.line pop (Load u)))) (Array.of_list sc.touched) in
        ignore (shutdown s);
        Wire.close c;
        r
  in
  (* -------- the in-process replay: expected replies -------- *)
  let rdb = match spec.store with Memory -> Relal.Csv.load_db ~dir:dump | Disk _ -> pop.db in
  let a = Replay.create ?store_dir:(store_arg ()) ~replicas ~dedupe:(not trace) rdb in
  let b = if trace then Some (Trace.create ~store_dir:(fresh_store ()) ~replicas rdb) else None in
  let req_no = ref 0 in
  let submit_s = ref [] and traced = ref [] and stolen = ref [] in
  let replay phase what (req, (r : Wire.reply)) =
    let s0 = if trace then Wire.steal_s () else 0. in
    let d, dt = Replay.run a pop req in
    (match b with
    | Some b when phase <> "readback" ->
        let ans = Trace.run b ~req:!req_no ~phase (Population.line pop req) in
        if phase = "timed" then begin
          submit_s := dt :: !submit_s;
          traced := (req, ans) :: !traced;
          stolen := (Wire.steal_s () > s0) :: !stolen
        end;
        if ans.Trace.digest <> d then fail tally "%s: traced pipeline reply differs from the core's" what
    | _ -> ());
    incr req_no;
    check tally what r d
  in
  Array.iter (replay "warmup" "warm-up") warm;
  let hr0 = Replay.health a in
  let cstats0 = Option.map (fun b -> (Perso.Perso_cache.stats b.Trace.cache, Perso_server.Profile_lru.stats b.Trace.lru)) b in
  (* The timed requests in the order they were sent, so the replay's
     caches see the interleaving the server's saw. *)
  let sent =
    List.concat
      (List.mapi
         (fun i s -> List.mapi (fun j req -> (req, timed.(i).(j))) (Array.to_list s))
         (Array.to_list sc.timed))
    |> List.stable_sort (fun (_, (x : Wire.reply)) (_, (y : Wire.reply)) ->
           compare x.sent_at y.sent_at)
  in
  List.iter (replay "timed" "timed request") sent;
  let hr1 = Replay.health a in
  let cstats1 = Option.map (fun b -> (Perso.Perso_cache.stats b.Trace.cache, Perso_server.Profile_lru.stats b.Trace.lru)) b in
  Array.iter (replay "probe" "probe save") probe;
  Array.iter (replay "readback" "read-back") readback_mem;
  Array.iter (replay "readback" "read-back after restart") readback_disk;
  Replay.stop a;
  (* -------- the ledger: client tallies against HEALTH deltas -------- *)
  let count f = List.fold_left (fun n (req, r) -> if f req r then n + 1 else n) 0 sent in
  let is_pers = function Pers _ -> true | _ -> false in
  let ok (r : Wire.reply) = r.status = Wire.Ok_reply in
  let shed (r : Wire.reply) = r.status = Wire.Err_reply "overloaded" in
  let err (r : Wire.reply) = match r.status with Wire.Err_reply f -> f <> "overloaded" | _ -> false in
  let pers_ok = count (fun q r -> is_pers q && ok r) and pers_err = count (fun q r -> is_pers q && err r) in
  ledger tally ~label:"socket" hs0 hs1
    [
      ("accepted", (fun d -> d "accepted"), count (fun _ r -> not (shed r)));
      ("completed_ok", (fun d -> d "completed_ok"), count (fun _ r -> ok r));
      ("completed_err", (fun d -> d "completed_err"), count (fun _ r -> err r));
      ( "sheds",
        (fun d -> d "shed_queue_full" + d "shed_expired" + d "shed_draining" + d "shed_breaker"),
        count (fun _ r -> shed r) );
      ("pers_ok", (fun d -> d "pers_ok"), pers_ok);
      ("pers_err", (fun d -> d "pers_err"), pers_err);
      ( "cache sources",
        (fun d -> d "cache_hit" + d "cache_miss" + d "cache_incremental" + d "cache_bypass"),
        pers_ok + pers_err );
    ];
  (* -------- end-to-end numbers -------- *)
  (* A round during which the host stole more than 2% of its wall time
     (plus one 10 ms tick, the counter's grain) is set aside: on a shared
     host a steal burst slows whatever runs through it by 20-50%, and
     the rounds are short enough that most of them miss a burst.  The
     least-stolen of the other rounds are kept anyway until [need]
     samples are.  The rule looks at a round's steal share only, never
     at its requests' latencies.  Probe blocks follow the same rule. *)
  let kept marks ~size ~need =
    let n = Array.length marks - 1 in
    let share r =
      let t0, s0 = marks.(r) and t1, s1 = marks.(r + 1) in
      (s1 -. s0 -. 0.01) /. (t1 -. t0)
    in
    let keep = Array.make n false in
    ignore
      (List.fold_left
         (fun got r ->
           if share r <= 0.02 || got < need then begin
             keep.(r) <- true;
             got + size r
           end
           else got)
         0
         (List.stable_sort (fun a b -> compare (share a) (share b)) (List.init n Fun.id))
        : int);
    keep
  in
  let keep =
    kept marks ~need:min_pers
      ~size:(fun r ->
        Array.fold_left
          (fun acc s ->
            let lo, hi = Wire.slice ~rounds ~len:(Array.length s) r in
            let k = ref 0 in
            for j = lo to hi - 1 do
              if is_pers s.(j) then incr k
            done;
            acc + !k)
          0 sc.timed)
  in
  let n_kept k = Array.fold_left (fun n b -> if b then n + 1 else n) 0 k in
  let over_kept k f = Array.concat (List.filteri (fun r _ -> k.(r)) (List.init (Array.length k) f)) in
  (* Latencies (ms) of the OK replies matching [f] in timed round [r]. *)
  let round_ms f r =
    let acc = ref [] in
    Array.iteri
      (fun i s ->
        let lo, hi = Wire.slice ~rounds ~len:(Array.length s) r in
        for j = lo to hi - 1 do
          let (rep : Wire.reply) = timed.(i).(j) in
          if f s.(j) && ok rep then acc := (rep.latency_s *. 1000.) :: !acc
        done)
      sc.timed;
    Array.of_list !acc
  in
  let pers_ms = over_kept keep (round_ms is_pers) in
  let probe_keep = kept probe_marks ~need:((Array.length probe + 1) / 2) ~size:(fun k -> snd (block k)) in
  let probe_kept = over_kept probe_keep (fun k -> Array.sub probe (fst (block k)) (snd (block k))) in
  (* Percent of wall time the host stole between the first and last mark. *)
  let steal_pct m =
    let t0, s0 = m.(0) and t1, s1 = m.(Array.length m - 1) in
    if t1 > t0 then 100. *. (s1 -. s0) /. (t1 -. t0) else 0.
  in
  let save_ms =
    match spec.save_every with
    | 0 -> Array.map (fun (_, (rep : Wire.reply)) -> rep.latency_s *. 1000.) probe_kept
    | _ -> over_kept keep (round_ms (function Save _ -> true | _ -> false))
  in
  (* Requests per second over the kept rounds. *)
  let kept_n = ref 0 and kept_s = ref 0. and kept_steal = ref 0. in
  Array.iteri
    (fun r k ->
      if k then begin
        Array.iter
          (fun s ->
            let lo, hi = Wire.slice ~rounds ~len:(Array.length s) r in
            kept_n := !kept_n + hi - lo)
          sc.timed;
        kept_s := !kept_s +. fst marks.(r + 1) -. fst marks.(r);
        kept_steal := !kept_steal +. snd marks.(r + 1) -. snd marks.(r)
      end)
    keep;
  let rps = float_of_int !kept_n /. !kept_s in
  let total_n = List.length sent and total_s = fst marks.(rounds) -. fst marks.(0) in
  let h1 = host () in
  let failed_pct = 100. *. Metric.ratio tally.failed tally.attempted in
  say "setup_s            %.4f s    (median of %d starts: %s)" (Metric.median setups) setup_reps
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") setups)));
  say "# kept: %d of %d timed rounds (host steal %.1f%% of their wall time, %.1f%% over all)%s; set aside: steal over 2%%"
    (n_kept keep) rounds (100. *. !kept_steal /. !kept_s) (steal_pct marks)
    (if probe_blocks = 0 then ""
     else
       Printf.sprintf ", %d of %d probe blocks of %d saves (steal %.1f%%)" (n_kept probe_keep)
         probe_blocks probe_block (steal_pct probe_marks));
  say "throughput_rps     %.2f 1/s  (%d req in %.2f s of kept rounds; whole script %d req in %.2f s = %.2f)"
    rps !kept_n !kept_s total_n total_s (float_of_int total_n /. total_s);
  say "personalize_p50_ms %.3f ms   (%d samples)" (Metric.median pers_ms) (Array.length pers_ms);
  say "personalize_p99_ms %.3f ms   (%d samples)" (Metric.quantile pers_ms 0.99) (Array.length pers_ms);
  say "# personalize ms at p10 p25 p50 p75 p90: %s"
    (String.concat " "
       (List.map (fun q -> Printf.sprintf "%.2f" (Metric.quantile pers_ms q)) [ 0.1; 0.25; 0.5; 0.75; 0.9 ]));
  say "save_p50_ms        %.3f ms   (%d samples, %s)" (Metric.median save_ms) (Array.length save_ms)
    (if spec.save_every = 0 then "probe after the timed script" else "within the timed script");
  say "save_p99_ms        %.3f ms" (Metric.quantile save_ms 0.99);
  say "server_rss_mb      %.1f MiB" rss;
  say "failed_pct         %.3f %%   (%d of %d requests)" failed_pct tally.failed tally.attempted;
  say "# host: steal %.2f s, load average %.2f -> %.2f over %.1f s"
    (h1.steal -. h0.steal)
    h0.load1 h1.load1 (h1.at -. h0.at);
  let metrics =
    if not trace then
      [
        Metric.m "setup_s" "s" (Metric.median setups);
        Metric.m "throughput_rps" "1/s" rps;
        Metric.m "personalize_p50_ms" "ms" (Metric.median pers_ms);
        Metric.m "personalize_p99_ms" "ms" (Metric.quantile pers_ms 0.99);
        Metric.m "save_p50_ms" "ms" (Metric.median save_ms);
        Metric.m "save_p99_ms" "ms" (Metric.quantile save_ms 0.99);
        Metric.m "server_rss_mb" "MiB" rss;
        Metric.m "ok_pct" "%" (100. -. failed_pct);
      ]
    else
      let b = Option.get b in
      Layers.metrics ~work ~sqls:pop.sqls ~b ~submit_s:(Array.of_list (List.rev !submit_s))
        ~traced:(List.rev !traced) ~stolen:(List.rev !stolen) ~pers_ms ~hr:(hr0, hr1) ~hs:(hs0, hs1)
        ~cstats:(Option.get cstats0, Option.get cstats1) ~gc:(gc_stat log) ~fail:(fun msg -> fail tally "%s" msg)
  in
  List.iter (fun n -> say "# FAILED: %s" n) (List.rev tally.notes);
  Option.iter Trace.close b;
  rm_rf work;
  (tally, metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_int seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pbench --workload NAME --seed N --seconds S --trace 0|1";
  (* A stopped pbench stops its server too. *)
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Wire.kill_all (); exit 1));
  match Population.find !workload with
  | None ->
      prerr_endline
        ("unknown workload; one of: " ^ String.concat ", " (List.map (fun (s : spec) -> s.name) specs));
      exit 2
  | Some spec -> (
      match run spec ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) with
      | tally, metrics ->
          print_json ~correct:(tally.failed = 0) ~attempted:tally.attempted ~failed:tally.failed
            metrics
      | exception e ->
          Wire.kill_all ();
          prerr_endline ("pbench: " ^ Printexc.to_string e);
          exit 1)
