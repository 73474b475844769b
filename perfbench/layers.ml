(* Per-layer metrics of the traced run, and the checks that tie the
   trace to the server: its counts against the in-process core's HEALTH
   deltas, its per-request time against [submit].  The cache ratios are
   the socket server's own, from its HEALTH deltas over the timed
   script. *)

let mean l = Metric.mean (Array.of_list l)
let median l = Metric.median (Array.of_list l)
let quantile l q = Metric.quantile (Array.of_list l) q
let sum = List.fold_left ( +. ) 0.

let metrics ~work ~sqls ~(b : Trace.t) ~submit_s ~traced ~stolen
    ~pers_ms ~hr:(hr0, hr1) ~hs:(hs0, hs1) ~cstats:((c0, l0), (c1, l1)) ~gc ~fail =
  let fail fmt = Printf.ksprintf fail fmt in
  let plain = Trace.plain_ms b sqls in
  let selfs = Trace.self_times () in
  Trace.write_tsv (work ^ ".spans.tsv") selfs;
  let self_of name phases =
    List.filter_map
      (fun ((s : Trace.span), self) ->
        if s.name = name && List.mem s.phase phases then Some self else None)
      selfs
  in
  let timed = [ "timed" ] and cold = [ "warmup"; "timed" ] and saves = [ "timed"; "probe" ] in
  let mean_self name phases = mean (self_of name phases) in
  let pers =
    List.filter_map
      (fun (req, (a : Trace.answer)) ->
        match req with Population.Pers { tpl; _ } -> Some (tpl, a) | _ -> None)
      traced
  in
  let pers_submit =
    List.filter_map
      (fun ((req, _), s) -> match req with Population.Pers _ -> Some s | _ -> None)
      (List.combine traced (Array.to_list submit_s))
  in
  (* ---- counts against the in-process core's HEALTH deltas ---- *)
  let dr k = Wire.stat hr1 k - Wire.stat hr0 k in
  let ds k = Wire.stat hs1 k - Wire.stat hs0 k in
  let open Perso.Perso_cache in
  let hits = c1.hits - c0.hits
  and misses = c1.misses - c0.misses
  and incr = c1.incremental - c0.incremental in
  let lru = Perso_server.Profile_lru.(l1.hits - l0.hits, l1.misses - l0.misses) in
  List.iter
    (fun (name, traced, health) ->
      if traced <> health then
        fail "trace count %s = %d, HEALTH delta says %d" name traced health)
    [
      ("cache_hit", hits, dr "cache_hit");
      ("cache_miss", misses, dr "cache_miss");
      ("cache_incremental", incr, dr "cache_incremental");
      ("profile_lru_hit", fst lru, dr "profile_lru_hit");
      ("profile_lru_miss", snd lru, dr "profile_lru_miss");
      ("pers_ok (socket)", List.length pers, ds "pers_ok");
    ];
  let s_hits = ds "cache_hit" and s_incr = ds "cache_incremental" in
  let s_lookups = s_hits + ds "cache_miss" + s_incr in
  let s_lru = ds "profile_lru_hit" in
  let s_lru_all = s_lru + ds "profile_lru_miss" in
  let ratio = Metric.ratio in
  Printf.printf
    "# ratios: socket server / in-process replay in send order: plan-cache hits %.3f / %.3f, \
     incremental %.3f / %.3f, profile-LRU hits %.3f / %.3f\n"
    (ratio s_hits s_lookups) (ratio hits (hits + misses + incr))
    (ratio s_incr s_lookups) (ratio incr (hits + misses + incr))
    (ratio s_lru s_lru_all) (ratio (fst lru) (fst lru + snd lru));
  (* ---- the trace against submit: coverage and overhead ---- *)
  let req_s = List.map (fun (_, (a : Trace.answer)) -> a.request_s) traced in
  let sub = Array.to_list submit_s in
  (* A request's stages should account for its submit time; only the
     worker handoff is missing from them.  The handoff is a fixed cost of
     a few hundred microseconds, more under host steal, so a request
     agrees when its stages are within 20% or 1 ms of its submit time.
     Single requests stray further (a major GC slice lands in one run and
     not in the other), so the gate asks this of at least half of the
     requests, and of the script's sums.  A host steal tick during either
     replay of a request puts the two out of step, so the gate is taken
     over the requests no tick landed in, as long as there are 100. *)
  let pairs = List.combine req_s sub in
  let clean = List.filter_map (fun (p, st) -> if st then None else Some p) (List.combine pairs stolen) in
  let gated = if List.length clean >= 100 then clean else pairs in
  let ratios = List.map (fun (r, s) -> r /. s) gated in
  let total = sum (List.map fst gated) /. sum (List.map snd gated) in
  let agree =
    List.length (List.filter (fun (r, s) -> Float.abs (r -. s) <= Float.max (0.2 *. s) 0.001) gated)
  in
  let agree_share = Metric.ratio agree (List.length gated) in
  Printf.printf
    "# trace: stage self times / in-process submit time over %d of %d requests (no steal tick): \
     p10 %.2f, median %.2f, p90 %.2f; %.0f%% within 20%% or 1 ms; whole script %.2f (gate: at \
     least half the requests, and the whole script within 0.8-1.2)\n"
    (List.length gated) (List.length pairs) (quantile ratios 0.1) (median ratios)
    (quantile ratios 0.9) (100. *. agree_share) total;
  if agree_share < 0.5 || Float.abs (total -. 1.) > 0.2 then
    fail "traced stage times do not add up to submit: %.0f%% of requests agree, whole script %.2f"
      (100. *. agree_share) total;
  Printf.printf "# trace: overhead %.1f%% (traced pipeline %.3f s vs untraced submit %.3f s)\n"
    (100. *. ((sum req_s /. sum sub) -. 1.)) (sum req_s) (sum sub);
  (* ---- self time per layer over the timed script ---- *)
  let names =
    List.sort_uniq compare
      (List.filter_map
         (fun ((s : Trace.span), _) -> if s.phase = "timed" then Some s.name else None)
         selfs)
  in
  let total_self = sum (self_of "request" timed) +. sum (List.concat_map (fun n -> if n = "request" || n = "aside" then [] else self_of n timed) names) in
  Printf.printf "# %-32s %8s %12s %8s\n" "span (timed script)" "count" "self us/call" "share";
  List.iter
    (fun n ->
      let l = self_of n timed in
      let in_request = n <> "aside" && not (List.mem n [ "binder.bind"; "qgraph.of_query"; "pgraph.of_profile"; "select.select"; "personalize.integrate_selected" ]) in
      Printf.printf "# %-32s %8d %12.1f %7.1f%%%s\n" n (List.length l) (1e6 *. mean l)
        (100. *. sum l /. total_self)
        (if in_request then "" else "  (aside)"))
    names;
  let m = Metric.m in
  [
    m "exec.personalized_ms" "ms" (1e3 *. mean_self "exec.personalized" timed);
    m "exec.plain_ms" "ms" (mean (List.map (fun (tpl, _) -> plain.(tpl)) pers));
    m "exec.rows_out" "rows" (mean (List.map (fun (_, (a : Trace.answer)) -> float_of_int a.rows) pers));
    m "protocol.render_us" "us" (1e6 *. mean_self "protocol.bprint_rows" timed);
    m "protocol.reply_bytes" "bytes" (mean (List.map (fun (_, (a : Trace.answer)) -> float_of_int a.bytes) pers));
    m "protocol.parse_us" "us" (1e6 *. mean_self "protocol.parse_command" timed);
    m "server.wire_ms" "ms"
      (Metric.median pers_ms -. (1e3 *. median pers_submit));
    m "server_core.submit_ms" "ms" (1e3 *. mean sub);
    m "server_core.handoff_ms" "ms" (1e3 *. mean (List.map2 ( -. ) sub req_s));
    m "profile_lru.hit_ratio" "ratio" (ratio s_lru s_lru_all);
    m "profile_store.load_us" "us" (1e6 *. mean_self "profile_store.load_r" cold);
    m "perso_cache.hit_ratio" "ratio" (ratio s_hits s_lookups);
    m "perso_cache.miss_ms" "ms" (1e3 *. mean b.miss_s);
    m "perso_cache.evictions" "count" (float_of_int (c1.evictions - c0.evictions));
    m "sql_parser.parse_us" "us" (1e6 *. mean_self "sql_parser.parse" timed);
    m "binder.bind_us" "us" (1e6 *. mean_self "binder.bind" cold);
    m "select.ms" "ms" (1e3 *. mean_self "select.select" cold);
    m "select.expansions" "count" (mean (List.map float_of_int b.expansions));
    m "integrate.us" "us" (1e6 *. mean_self "personalize.integrate_selected" cold);
    m "perso_cache.incremental_ratio" "ratio" (ratio s_incr s_lookups);
    m "profile_store.save_ms" "ms" (1e3 *. mean_self "profile_store.save" saves);
    m "store.append_ms" "ms" (1e3 *. mean_self "store.append" saves);
    m "store.bytes_per_save" "bytes" (mean (List.map float_of_int b.wal_bytes));
    m "store.recovery_ms" "ms" (1e3 *. mean_self "store.open" [ "setup" ]);
    m "gc.minor_collections" "count" (gc "minor_collections");
    m "gc.major_collections" "count" (gc "major_collections");
    m "gc.top_heap_mb" "MiB" (gc "top_heap_words" *. 8. /. 1048576.);
  ]
