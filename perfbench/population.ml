(* Workload definitions.

   A workload's population — database, users' profiles, query
   templates — is fixed: it depends only on constants here, so every
   seed serves the same data and the spread between seeds measures the
   program rather than a lucky or unlucky population (the profiles'
   personalized execution costs differ by 10x between users).  The
   seed drives the traffic: which user each request is for, in which
   order the templates come, and which preference each save retunes. *)

open Perso

(* The profiles reach the server pre-populated: a memory-store server
   loads them from a generated --data-dir dump, a disk-store server
   recovers them from a pre-populated --store directory. *)
type store = Memory | Disk of int  (** replicas *)

type spec = {
  name : string;
  movies : int;
  users : int;
  templates : int list;
      (** indices into the distinct templates of
          [Moviedb.Workload.queries ~seed:template_seed] *)
  zipf_s : float;  (** skew over each connection's users *)
  save_every : int;
      (** every [save_every]-th timed request is a PROFILE SAVE; 0 for
          read-only workloads *)
  store : store;
  rps : float;
      (** requests per second the workload sustained when it was
          defined; sizes the timed script to about [--seconds] *)
  saves : int;
      (** PROFILE SAVE samples for a p99: at least this many within the
          timed script when [save_every > 0]; otherwise a probe of this
          many sent after it, so save latency is measured on every
          workload *)
}

let connections = 2
let db_seed = 42 (* perso_cli serve's default --seed *)
let template_seed = 77
let profile_seed = 5000
let warmup_cap = 600

(* PERSONALIZE samples at least, so ten lie beyond the p99. *)
let min_pers = 1000

let specs =
  [
    {
      name = "cold-wide";
      movies = 2_000;
      users = 2_000;
      templates = List.init 16 Fun.id;
      zipf_s = 0.5;
      save_every = 0;
      store = Memory;
      rps = 300.;
      saves = 200;
    };
    {
      name = "save-mix";
      movies = 2_000;
      users = 2_000;
      templates = List.init 16 Fun.id;
      zipf_s = 1.1;
      save_every = 5;
      store = Disk 2;
      rps = 100.;
      saves = 400;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) specs
let user_name i = Printf.sprintf "u%04d" i

(* ------------------------------ population ----------------------------- *)

type population = {
  spec : spec;
  db : Relal.Database.t;  (** the server's catalog, profiles not included *)
  sqls : string array;
  profiles : Profile.t array;
}

let generate_db (spec : spec) =
  Moviedb.Datagen.(generate (scale ~seed:db_seed spec.movies))

let distinct_templates db =
  let seen = Hashtbl.create 64 in
  Moviedb.Workload.queries db ~n:64 ~seed:template_seed
  |> List.map Relal.Sql_print.query_to_string
  |> List.filter (fun sql ->
         if Hashtbl.mem seen sql then false
         else (
           Hashtbl.add seen sql ();
           true))
  |> Array.of_list

let profile db i =
  Moviedb.Profile_gen.generate db
    {
      Moviedb.Profile_gen.default with
      seed = profile_seed + i;
      n_selections = 20 + (i * 7 mod 31);
    }

let make (spec : spec) =
  let db = generate_db spec in
  let all = distinct_templates db in
  let sqls = Array.of_list (List.map (fun i -> all.(i)) spec.templates) in
  { spec; db; sqls; profiles = Array.init spec.users (profile db) }

(* One line of [\[ cond, degree \]] blocks: PROFILE SAVE's wire form. *)
let wire_entries p =
  Profile.to_string p |> String.split_on_char '\n' |> List.map String.trim
  |> List.filter (fun l -> l <> "")
  |> String.concat " "

(* Copy the profiles into [db]'s catalog table in one pass: saving them
   one by one rewrites the whole table each time, quadratic in users. *)
let install_profiles db profiles =
  Profile_store.install db;
  let t = Relal.Database.table db Profile_store.table_name in
  Array.iteri
    (fun i p ->
      List.iter
        (fun { Perso_store.Codec.cond; degree } ->
          Relal.Table.insert t
            [|
              Relal.Value.Str (user_name i); Relal.Value.Str cond;
              Relal.Value.Float degree;
            |])
        (Profile_store.entries_of_profile p))
    profiles

(* ------------------------------- scripts ------------------------------- *)

type req =
  | Pers of { user : int; tpl : int }
  | Save of { user : int; entries : string }
  | Load of int

let line pop = function
  | Pers { user; tpl } ->
      Printf.sprintf "PERSONALIZE %s %s" (user_name user) pop.sqls.(tpl)
  | Save { user; entries } ->
      Printf.sprintf "PROFILE SAVE %s %s" (user_name user) entries
  | Load user -> Printf.sprintf "PROFILE LOAD %s" (user_name user)

type script = {
  timed : req array array;  (** one closed-loop script per connection *)
  warmup : req array;  (** distinct PERSONALIZE keys, untimed *)
  probe : req array;  (** trailing saves (read-only workloads) *)
  touched : int list;  (** users with a save, for the read-back *)
}

(* Retune one selection of [p] to a fresh degree (3 decimals, never the
   current one, so every save is an effective mutation). *)
let retune rng p =
  match Profile.selections p with
  | [] -> p
  | sels ->
      let a, d = List.nth sels (Putil.Rng.int rng (List.length sels)) in
      let cur = Degree.to_float d in
      let rec pick () =
        let v = Float.round ((0.3 +. Putil.Rng.float rng 0.7) *. 1000.) /. 1000. in
        if Float.abs (v -. cur) < 0.0005 then pick () else v
      in
      Profile.add p (Atom.Sel a) (Degree.of_float (pick ()))

(* Split [n] requests over [ranks] Zipf ranks in exact proportion
   (largest remainder), so every seed sends each rank the same number of
   requests and only their order depends on the seed. *)
let zipf_counts ~n ~ranks ~s =
  let z = Putil.Zipf.create ~n:ranks ~s in
  let exact = Array.init ranks (fun r -> float_of_int n *. Putil.Zipf.pmf z r) in
  let counts = Array.map (fun x -> int_of_float (Float.floor x)) exact in
  let frac r = exact.(r) -. Float.floor exact.(r) in
  let order = Array.init ranks Fun.id in
  Array.stable_sort (fun a b -> compare (frac b) (frac a)) order;
  for i = 0 to n - Array.fold_left ( + ) 0 counts - 1 do
    counts.(order.(i)) <- counts.(order.(i)) + 1
  done;
  counts

(* Connection [c] owns the users [u] with [u mod connections = c], so
   each user's saves and reads come in one well-defined order.  Zipf
   rank r of connection c is user [c + connections * r]. *)
let script pop ~seed ~seconds =
  let spec = pop.spec in
  let nt = Array.length pop.sqls in
  let cur = Array.copy pop.profiles in
  let touched = Hashtbl.create 64 in
  let save rng user =
    cur.(user) <- retune rng cur.(user);
    Hashtbl.replace touched user ();
    Save { user; entries = wire_entries cur.(user) }
  in
  let total =
    let by_rate = int_of_float (spec.rps *. float_of_int seconds) in
    let reads_per = if spec.save_every = 0 then 1. else 1. -. (1. /. float_of_int spec.save_every) in
    let by_pers = int_of_float (Float.ceil (float_of_int min_pers /. reads_per)) in
    let by_saves = if spec.save_every = 0 then 0 else spec.saves * spec.save_every in
    max by_rate (max by_pers by_saves)
  in
  let per_conn = (total + connections - 1) / connections in
  (* A fixed multiset of requests in a seeded order.  Reads take the
     templates in turn down the rank list, so each user's reads spread
     evenly over the templates. *)
  let shuffled rng ~user_of ~reads ~saves =
    let items = ref [] and k = ref 0 in
    Array.iteri
      (fun r n ->
        for _ = 1 to n do
          items := `Read (user_of r, !k mod nt) :: !items;
          incr k
        done)
      reads;
    Array.iteri (fun r n -> for _ = 1 to n do items := `Save (user_of r) :: !items done) saves;
    let a = Array.of_list (List.rev !items) in
    Putil.Rng.shuffle rng a;
    Array.init (Array.length a) (fun i ->
        match a.(i) with `Read (user, tpl) -> Pers { user; tpl } | `Save user -> save rng user)
  in
  let timed =
    Array.init connections (fun c ->
        let rng = Putil.Rng.create ((seed * 1_000_003) + c) in
        let ranks = (spec.users - c + connections - 1) / connections in
        let saves = if spec.save_every = 0 then 0 else per_conn / spec.save_every in
        shuffled rng
          ~user_of:(fun r -> c + (connections * r))
          ~reads:(zipf_counts ~n:(per_conn - saves) ~ranks ~s:spec.zipf_s)
          ~saves:(zipf_counts ~n:saves ~ranks ~s:spec.zipf_s))
  in
  let warmup =
    let seen = Hashtbl.create 1024 and acc = ref [] and n = ref 0 in
    let j = ref 0 in
    while !n < warmup_cap && !j < per_conn do
      Array.iter
        (fun s ->
          match s.(!j) with
          | Pers { user; tpl } when !n < warmup_cap && not (Hashtbl.mem seen (user, tpl)) ->
              Hashtbl.add seen (user, tpl) ();
              acc := Pers { user; tpl } :: !acc;
              incr n
          | _ -> ())
        timed;
      incr j
    done;
    Array.of_list (List.rev !acc)
  in
  let probe =
    shuffled
      (Putil.Rng.create ((seed * 1_000_003) + 99))
      ~user_of:Fun.id ~reads:[||]
      ~saves:(zipf_counts ~n:(if spec.save_every = 0 then spec.saves else 0) ~ranks:spec.users ~s:spec.zipf_s)
  in
  {
    timed;
    warmup;
    probe;
    touched = List.sort compare (Hashtbl.fold (fun u () acc -> u :: acc) touched []);
  }
