(* Differential executor test: the batch (vrel / row-id) executor must
   agree, on sorted rows, with an *independent* cross-product + filter
   reference evaluator written here against plain value lists — no vrel,
   no Batch, no shared join machinery.  The corpus is the full SQL set
   exercised by test_exec.ml plus the Moviedb.Workload generator's query
   set; shapes the reference cannot express (aggregates, derived tables,
   LIMIT) are still cross-checked Auto vs Naive. *)

open Relal
open Sql_ast

exception Unsupported

(* ------------------- Independent reference evaluator ------------------- *)

(* Environments are association lists (tv -> (column names, row)); the
   FROM product is built by list comprehension, WHERE is evaluated per
   environment, and projection materializes plain rows.  ORDER BY is
   ignored (all comparisons are on sorted rows); LIMIT is refused. *)
let ref_eval db (q : query) : Exec.result =
  if q.group_by <> [] || q.having <> None || q.limit <> None then
    raise Unsupported;
  let tables =
    List.map
      (function
        | F_derived _ -> raise Unsupported
        | F_rel r -> (
            match Database.find_table db r.rel with
            | None -> raise Unsupported
            | Some t ->
                let cols =
                  Array.map
                    (fun c -> c.Schema.cname)
                    (Schema.columns (Table.schema t))
                in
                (r.alias, cols, Table.to_list t)))
      q.from
  in
  let envs =
    List.fold_left
      (fun acc (tv, cols, rows) ->
        List.concat_map
          (fun env -> List.map (fun row -> (tv, cols, row) :: env) rows)
          acc)
      [ [] ] tables
  in
  let lookup env (a : attr) =
    let _, cols, row =
      try List.find (fun (tv, _, _) -> tv = a.tv) env
      with Not_found -> raise Unsupported
    in
    let rec find i =
      if i >= Array.length cols then raise Unsupported
      else if cols.(i) = a.col then row.(i)
      else find (i + 1)
    in
    find 0
  in
  let scalar env = function S_const c -> c | S_attr a -> lookup env a in
  let rec holds env = function
    | P_true -> true
    | P_false -> false
    | P_not p -> not (holds env p)
    | P_and ps -> List.for_all (holds env) ps
    | P_or ps -> List.exists (holds env) ps
    | P_cmp (op, l, r) -> (
        let a = scalar env l and b = scalar env r in
        match op with
        | Eq -> Value.equal a b
        | Ne -> not (Value.equal a b)
        | Lt -> Value.compare a b < 0
        | Le -> Value.compare a b <= 0
        | Gt -> Value.compare a b > 0
        | Ge -> Value.compare a b >= 0)
  in
  let project env =
    Array.of_list
      (List.map
         (function
           | Sel_attr (a, _) -> lookup env a
           | Sel_const (v, _) -> v
           | Sel_agg _ -> raise Unsupported)
         q.select)
  in
  let rows =
    List.filter_map
      (fun env -> if holds env q.where then Some (project env) else None)
      envs
  in
  let rows =
    if q.distinct then begin
      let seen = Hashtbl.create 64 in
      List.filter (fun r ->
          let k = Array.to_list r in
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.add seen k ();
            true
          end)
        rows
    end
    else rows
  in
  { Exec.cols = Array.of_list (select_output_names q); rows }

(* ----------------------------- Corpus ---------------------------------- *)

(* Every SQL text test_exec.ml runs (operator coverage); the reference
   evaluator handles the SPJ subset and raises [Unsupported] on the rest,
   which stays covered by the strategy cross-check. *)
let corpus =
  [
    "select m.title from movie m where m.year = 2000";
    "select m.title, 1 as tag from movie m where m.year = 1998";
    "select title from movie where year = 2003";
    "select m.title from movie m, play p where m.mid = p.mid and p.date = \
     '2003-07-02'";
    "select m.title from movie m, play p where m.mid = p.mid and p.date = \
     '2/7/2003'";
    "select m.title from movie m, directed d, director r where m.mid = d.mid \
     and d.did = r.did and r.name = 'D. Lynch'";
    "select distinct m2.title from movie m1, directed d1, directed d2, movie \
     m2 where m1.title = 'Sweet Chaos' and m1.mid = d1.mid and d1.did = \
     d2.did and d2.mid = m2.mid";
    "select m.title, d.name from movie m, director d where m.year = 1998";
    "select g.genre from genre g";
    "select distinct g.genre from genre g";
    "select distinct m.title from movie m, genre g where m.mid = g.mid and \
     (g.genre = 'sci-fi' or g.genre = 'action')";
    "select m.title from movie m, genre g where m.mid = g.mid and (g.genre = \
     'mystery' or g.genre = 'thriller')";
    "select g.genre, count(*) as n from genre g group by g.genre having \
     count(*) >= 3 order by n desc, g.genre asc";
    "select d.name, count(*) as n, min(m.year) as lo, max(m.year) as hi, \
     avg(m.year) as mean, sum(m.year) as total from director d, directed dd, \
     movie m where d.did = dd.did and dd.mid = m.mid group by d.name order \
     by d.name asc";
    "select count(*) as n from movie m where m.year = 1800";
    "select t.title from ((select m.title from movie m where m.year = 2000) \
     union all (select m.title from movie m where m.year = 2000)) t group by \
     t.title having count(*) >= 2";
    "select t.title from ((select distinct m.title from movie m, genre g \
     where m.mid = g.mid and g.genre = 'comedy') union all (select distinct \
     m.title from movie m, genre g where m.mid = g.mid and g.genre = \
     'drama')) t group by t.title having count(*) >= 2";
    "select t.title, degree_of_conjunction(t.doi, t.pref) as doi from \
     ((select distinct m.title as title, 0.8 as doi, 0 as pref from movie m, \
     genre g where m.mid = g.mid and g.genre = 'comedy') union all (select \
     distinct m.title as title, 0.5 as doi, 1 as pref from movie m, genre g \
     where m.mid = g.mid and g.genre = 'drama')) t group by t.title order \
     by doi desc, t.title asc";
    "select t.title, degree_of_conjunction(t.doi, t.pref) as doi from \
     ((select distinct m.title as title, 0.5 as doi, 0 as pref from movie m \
     where m.year = 2000) union all (select distinct m.title as title, 0.5 \
     as doi, 0 as pref from movie m where m.year = 2000)) t group by t.title";
    "select m.title, m.year from movie m order by m.year desc, m.title asc \
     limit 3";
    "select m.title from movie m where m.year = 1800";
    "select m.title from movie m where false";
    "select m.title from movie m where true";
    "select m.title from movie m where not m.year = 2003 and not m.year = \
     2002";
    "select distinct m.title, m.year from movie m, genre g where m.mid = \
     g.mid and (g.genre = 'comedy' or g.genre = 'thriller') order by m.year \
     desc, m.title asc limit 3";
    "select m.title from movie m, director r where m.year = 1998";
    "select distinct m1.title from movie m1, movie m2 where m1.year < \
     m2.year and m2.title = 'Sweet Chaos'";
  ]

let check_query db label bound =
  let auto = Exec.run ~strategy:`Auto db bound in
  let naive = Exec.run ~strategy:`Naive db bound in
  Alcotest.(check bool)
    (label ^ ": auto = naive (sorted rows)")
    true
    (Exec.result_equal_bag auto naive);
  match ref_eval db bound with
  | reference ->
      Alcotest.(check bool)
        (label ^ ": batch executor = reference evaluator (sorted rows)")
        true
        (Exec.result_equal_bag auto reference)
  | exception Unsupported -> ()

let test_corpus () =
  let db = Moviedb.Personas.tiny_db () in
  let n_ref = ref 0 in
  List.iter
    (fun sql ->
      let bound = Binder.bind db (Sql_parser.parse sql) in
      (match ref_eval db bound with
      | _ -> incr n_ref
      | exception Unsupported -> ());
      check_query db sql bound)
    corpus;
  (* Guard against the reference silently opting out of everything. *)
  Alcotest.(check bool)
    "reference evaluator covered most of the corpus" true (!n_ref >= 15)

let test_workload () =
  let db = Moviedb.Personas.tiny_db () in
  List.iteri
    (fun i q ->
      let bound = Binder.bind db q in
      check_query db (Printf.sprintf "workload query %d" i) bound)
    (Moviedb.Workload.queries db ~n:50 ~seed:4242)

let () =
  Alcotest.run "exec-diff"
    [
      ( "differential",
        [
          Alcotest.test_case "test_exec corpus" `Quick test_corpus;
          Alcotest.test_case "workload queries" `Quick test_workload;
        ] );
    ]
