(* Query governor: budgets trip with partial-progress stats, and the
   personalization degradation ladder records each step it takes. *)

open Relal

let tiny () = Moviedb.Personas.tiny_db ()

let join_sql =
  "select m.title from movie m, genre g where m.mid = g.mid"

let exhausted_of f =
  match f () with
  | _ -> Alcotest.fail "expected Governor.Exhausted"
  | exception Governor.Exhausted p -> p

(* ------------------------------ budgets --------------------------- *)

let test_max_rows () =
  let db = tiny () in
  let gov = Governor.start { Governor.unlimited with max_rows = Some 1 } in
  let p = exhausted_of (fun () -> Engine.run_sql ~gov db join_sql) in
  Alcotest.(check string) "what ran out" "rows" p.Governor.exhausted;
  Alcotest.(check bool) "partial progress recorded" true
    (p.Governor.rows_produced > 1);
  Alcotest.(check bool) "elapsed measured" true (p.Governor.elapsed_ms >= 0.)

let test_expired_deadline () =
  let db = tiny () in
  let gov = Governor.start { Governor.unlimited with deadline_ms = Some 0. } in
  let p = exhausted_of (fun () -> Engine.run_sql ~gov db join_sql) in
  Alcotest.(check string) "what ran out" "deadline" p.Governor.exhausted

let test_one_row_one_ms () =
  (* The resilience contract's acceptance case: a 1-row, 1 ms budget
     yields a typed Resource_exhausted carrying progress stats. *)
  let db = tiny () in
  let gov =
    Governor.start
      { Governor.deadline_ms = Some 1.; max_rows = Some 1;
        max_expansions = None }
  in
  match Perso.Error.guard (fun () -> Engine.run_sql ~gov db join_sql) with
  | Ok _ -> Alcotest.fail "expected Resource_exhausted"
  | Error (Perso.Error.Resource_exhausted p) ->
      Alcotest.(check bool) "names the spent budget" true
        (List.mem p.Governor.exhausted [ "rows"; "deadline" ]);
      Alcotest.(check bool) "message carries stats" true
        (String.length (Governor.progress_to_string p) > 0)
  | Error e -> Alcotest.failf "wrong family: %s" (Perso.Error.to_string e)

let test_unlimited_transparent () =
  let db = tiny () in
  let plain = Engine.run_sql db join_sql in
  let gov = Governor.start Governor.unlimited in
  let governed = Engine.run_sql ~gov db join_sql in
  Alcotest.(check int) "same row count"
    (List.length plain.Exec.rows)
    (List.length governed.Exec.rows)

let test_selection_expansions () =
  let db = tiny () in
  let julie = Moviedb.Personas.julie () in
  let q = Moviedb.Workload.tonight_query () in
  let gov =
    Governor.start { Governor.unlimited with max_expansions = Some 0 }
  in
  let p =
    exhausted_of (fun () -> Perso.Personalize.personalize ~gov db julie q)
  in
  Alcotest.(check string) "what ran out" "expansions" p.Governor.exhausted;
  Alcotest.(check int) "stopped at the first expansion" 1 p.Governor.expansions

let test_poll_stride () =
  (* Pin the amortization contract: [poll] reads the clock exactly every
     64th call, so with an already-expired deadline the first 63 polls
     pass and the 64th raises.  Executor inner loops rely on this being
     cheap; deadline overshoot is bounded by 63 polls' worth of work.
     (The deadline is negative because 63 no-op polls can complete
     within the clock's resolution — elapsed 0 must still count as
     past-deadline.) *)
  let expired = { Governor.unlimited with deadline_ms = Some (-1.) } in
  let gov = Governor.start expired in
  for _ = 1 to 63 do
    Governor.poll gov
  done;
  (match Governor.poll gov with
  | () -> Alcotest.fail "64th poll must read the clock and trip"
  | exception Governor.Exhausted p ->
      Alcotest.(check string) "deadline tripped" "deadline"
        p.Governor.exhausted);
  (* A batch-sized add_rows checks the deadline immediately — a single
     call can announce a whole cross product. *)
  let gov = Governor.start expired in
  (match Governor.add_rows gov 64 with
  | () -> Alcotest.fail "batch-sized add_rows must check immediately"
  | exception Governor.Exhausted _ -> ());
  (* Row-at-a-time accounting stays on the amortized stride. *)
  let gov = Governor.start expired in
  for _ = 1 to 63 do
    Governor.add_rows gov 1
  done;
  match Governor.add_rows gov 1 with
  | () -> Alcotest.fail "64th add_rows must read the clock and trip"
  | exception Governor.Exhausted _ -> ()

(* A deadline that expires once a large join's row charge has passed
   must trip while the join is still gathering its output, not at the
   next operator's charge.  Virtual clock: it stays at 0 until the
   governor has been charged for the whole cross product (that charge's
   own check passes), and reads past the deadline from then on.  With
   a 2-row outer side the cross product's fill loop polls too few times
   to read the clock, so the next read comes from the row-id gather —
   or, were the gather unpolled, from the count's charge, which would
   add another [n] rows to the progress. *)
let test_deadline_fires_inside_join_gather () =
  let db = Database.create () in
  List.iter
    (fun name ->
      Database.add_table db
        (Schema.make ~name ~cols:[ ("x", Value.TInt) ] ()))
    [ "s"; "t" ];
  let inner = 1 lsl 17 in
  for i = 1 to 2 do
    Database.insert db "s" [ Value.Int i ]
  done;
  for i = 1 to inner do
    Database.insert db "t" [ Value.Int i ]
  done;
  let n = 2 * inner in
  let gov = ref None and reading = ref false and past_charge = ref false in
  let clock () =
    match !gov with
    | Some g when not !reading ->
        reading := true;
        let rows = (Governor.progress g).Governor.rows_produced in
        reading := false;
        if rows < n then 0.
        else if not !past_charge then (
          past_charge := true;
          0.)
        else 1e6
    | _ -> 0.
  in
  Governor.set_clock clock;
  Fun.protect
    ~finally:(fun () -> Governor.set_clock Governor.real_clock)
    (fun () ->
      let g = Governor.start { Governor.unlimited with deadline_ms = Some 1. } in
      gov := Some g;
      let p =
        exhausted_of (fun () ->
            Engine.run_sql ~gov:g db "select count(*) as c from s a, t b")
      in
      Alcotest.(check string) "what ran out" "deadline" p.Governor.exhausted;
      Alcotest.(check int) "tripped before the next operator's charge" n
        p.Governor.rows_produced)

(* ------------------------- degradation ladder --------------------- *)

let test_ladder_to_unpersonalized () =
  let db = tiny () in
  let julie = Moviedb.Personas.julie () in
  let q = Moviedb.Workload.tonight_query () in
  let budget = { Governor.unlimited with max_expansions = Some 0 } in
  match Perso.Personalize.personalize_r ~budget db julie q with
  | Error e -> Alcotest.failf "expected a degraded run: %s" (Perso.Error.to_string e)
  | Ok run ->
      Alcotest.(check bool) "unpersonalized answer" true
        (run.Perso.Personalize.outcome = None);
      Alcotest.(check int) "two rungs recorded" 2
        (List.length run.Perso.Personalize.degradations);
      (match run.Perso.Personalize.degradations with
      | [ Perso.Personalize.Reduced { params; cause }; Perso.Personalize.Unpersonalized _ ]
        ->
          (match params.Perso.Personalize.k with
          | Perso.Criteria.Top_r r ->
              Alcotest.(check bool) "K halved" true (r < 5)
          | _ -> Alcotest.fail "unexpected criteria shape");
          (match cause with
          | Perso.Error.Resource_exhausted _ -> ()
          | e -> Alcotest.failf "wrong cause: %s" (Perso.Error.to_string e))
      | _ -> Alcotest.fail "expected Reduced then Unpersonalized");
      Alcotest.(check bool) "plain query still answered" true
        (List.length run.Perso.Personalize.result.Exec.rows > 0)

let test_no_degradation_under_generous_budget () =
  let db = tiny () in
  let julie = Moviedb.Personas.julie () in
  let q = Moviedb.Workload.tonight_query () in
  let budget =
    { Governor.deadline_ms = Some 60_000.; max_rows = Some 1_000_000;
      max_expansions = Some 100_000 }
  in
  match Perso.Personalize.personalize_r ~budget db julie q with
  | Error e -> Alcotest.failf "unexpected error: %s" (Perso.Error.to_string e)
  | Ok run ->
      Alcotest.(check int) "no degradations" 0
        (List.length run.Perso.Personalize.degradations);
      Alcotest.(check bool) "personalized outcome kept" true
        (run.Perso.Personalize.outcome <> None)

let test_hard_errors_not_degraded () =
  let db = tiny () in
  let julie = Moviedb.Personas.julie () in
  match Perso.Personalize.personalize_sql_r db julie "select nope" with
  | Error (Perso.Error.Parse _) -> ()
  | Error e -> Alcotest.failf "wrong family: %s" (Perso.Error.to_string e)
  | Ok _ -> Alcotest.fail "parse errors must not be degraded away"

let test_halve_params () =
  let p =
    { Perso.Personalize.default_params with
      k = Perso.Criteria.Top_r 5; l = `At_least 3 }
  in
  let h = Perso.Personalize.halve_params p in
  (match h.Perso.Personalize.k with
  | Perso.Criteria.Top_r r -> Alcotest.(check int) "K halved" 2 r
  | _ -> Alcotest.fail "criteria shape changed");
  (match h.Perso.Personalize.l with
  | `At_least n -> Alcotest.(check int) "L halved" 1 n
  | _ -> Alcotest.fail "L shape changed");
  let again = Perso.Personalize.halve_params h in
  (match again.Perso.Personalize.k with
  | Perso.Criteria.Top_r r -> Alcotest.(check int) "K floors at 1" 1 r
  | _ -> Alcotest.fail "criteria shape changed")

let () =
  Alcotest.run "governor"
    [
      ( "budgets",
        [
          Alcotest.test_case "max rows" `Quick test_max_rows;
          Alcotest.test_case "expired deadline" `Quick test_expired_deadline;
          Alcotest.test_case "1 row + 1 ms acceptance" `Quick
            test_one_row_one_ms;
          Alcotest.test_case "unlimited is transparent" `Quick
            test_unlimited_transparent;
          Alcotest.test_case "selection expansions" `Quick
            test_selection_expansions;
          Alcotest.test_case "every-64th-call poll granularity" `Quick
            test_poll_stride;
          Alcotest.test_case "deadline fires inside a join's gather" `Quick
            test_deadline_fires_inside_join_gather;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "degrades to unpersonalized" `Quick
            test_ladder_to_unpersonalized;
          Alcotest.test_case "generous budget, no degradation" `Quick
            test_no_degradation_under_generous_budget;
          Alcotest.test_case "hard errors stay errors" `Quick
            test_hard_errors_not_degraded;
          Alcotest.test_case "halve_params" `Quick test_halve_params;
        ] );
    ]
