open Sql_ast

exception Exec_error of string

let err fmt = Format.kasprintf (fun s -> raise (Exec_error s)) fmt

type result = { cols : string array; rows : Value.t array list }

(* --------------------------------------------------------------------- *)
(* Cooperative governor hooks                                             *)
(* --------------------------------------------------------------------- *)

(* The governor is ambient for the duration of one [run] (set under
   [Fun.protect]): the evaluator is a web of mutually recursive
   functions (derived tables, DNF branches, UNION ALL) that all share
   the same request budget, so threading a parameter through every one
   of them buys nothing but noise.  Disarmed, each hook is a single
   load-and-branch. *)
let governor : Governor.t option ref = ref None

let g_poll () = match !governor with None -> () | Some g -> Governor.poll g

let g_rows n = match !governor with None -> () | Some g -> Governor.add_rows g n

(* --------------------------------------------------------------------- *)
(* Data-parallel layer                                                    *)
(* --------------------------------------------------------------------- *)

(* Like the governor, the domain pool is ambient: armed once per process
   (CLI flag / server config), consulted by the operators that can
   partition their row loops.  Every parallel path splits rows into
   contiguous index ranges, computes per-range results on the pool, and
   concatenates them in range order — so output is byte-identical to the
   sequential loop and the sequential code remains the [None] /
   pool-busy fallback, not a separate semantics.

   The compiled readers and predicates the ranges share are pure row ->
   value closures over immutable storage batches; worker domains only
   ever read them.  Budget accounting inside a range goes through a
   [Governor.fork] of the ambient governor (shared atomic counters, a
   per-domain poll stride) — the ambient [ref] itself is never touched
   from a worker domain. *)
let pool : Putil.Dpool.t option ref = ref None

let set_pool p = pool := p

(* Below this many rows the chunk dispatch overhead beats the win. *)
let min_par_rows = 2048

(* Chunk geometry: a few chunks per lane so the atomic-cursor stealing
   evens out skew, but never chunks so small the dispatch dominates. *)
let plan_chunks lanes n =
  let csize = max 512 ((n + (lanes * 4) - 1) / (lanes * 4)) in
  (csize, (n + csize - 1) / csize)

let par_pool n =
  match !pool with
  | Some p when Putil.Dpool.size p > 1 && n >= min_par_rows -> Some p
  | _ -> None

(* A forked-governor (poll, charge) pair for one chunk. *)
let fork_hooks parent =
  match parent with
  | None -> (ignore, fun (_ : int) -> ())
  | Some g ->
      let g = Governor.fork g in
      ((fun () -> Governor.poll g), fun n -> Governor.add_rows g n)

let concat_int_arrays (parts : int array array) =
  let total = Array.fold_left (fun a p -> a + Array.length p) 0 parts in
  let out = Array.make total 0 in
  let off = ref 0 in
  Array.iter
    (fun p ->
      Array.blit p 0 out !off (Array.length p);
      off := !off + Array.length p)
    parts;
  out

(* --------------------------------------------------------------------- *)
(* Working relations: array-backed views with late materialization        *)
(* --------------------------------------------------------------------- *)

(* An intermediate relation is a *view* over source batches: [parts] are
   the underlying storage batches (base-table storage shared in place, or
   batches materialized for derived tables / DNF merges), and [rids]
   holds, per part, the row id each output row takes in that part's
   batch.  Joins therefore only produce int row-id columns; tuple values
   are touched when a predicate, grouping key or the final projection
   reads them — never re-copied at every join step. *)

type part = { batch : Batch.t; off : int; width : int }

type vrel = {
  header : (string * string) array;  (* tuple-variable.column per column *)
  parts : part array;
  nrows : int;  (* cached count — no List.length anywhere *)
  rids : int array array;  (* rids.(p).(r): row id of output row r in parts.(p) *)
}

let base_header alias tbl =
  Array.map
    (fun c -> (alias, String.lowercase_ascii c.Schema.cname))
    (Schema.columns (Table.schema tbl))

let vrel_of_batch header batch =
  let n = Batch.length batch in
  {
    header;
    parts = [| { batch; off = 0; width = Array.length header } |];
    nrows = n;
    rids = [| Array.init n Fun.id |];
  }

(* A single-part view whose rows are the given batch row ids — how an
   index probe materializes: ids only, no row copies. *)
let vrel_of_ids header batch ids =
  {
    header;
    parts = [| { batch; off = 0; width = Array.length header } |];
    nrows = Array.length ids;
    rids = [| ids |];
  }

let vrel_of_table alias tbl =
  Chaos.point Chaos.Scan;
  vrel_of_batch (base_header alias tbl) (Table.batch tbl)

let empty_vrel header =
  {
    header;
    parts = [| { batch = Batch.create (); off = 0; width = Array.length header } |];
    nrows = 0;
    rids = [| [||] |];
  }

let col_idx v (a : attr) =
  let n = Array.length v.header in
  let rec go i =
    if i >= n then None
    else begin
      let tv, c = v.header.(i) in
      if tv = a.tv && c = a.col then Some i else go (i + 1)
    end
  in
  go 0

let col_idx_exn v a =
  match col_idx v a with
  | Some i -> i
  | None -> err "executor: unresolved attribute %s.%s" a.tv a.col

(* Compiled column accessor: resolves the part and local column once and
   returns a closure reading the value of output row [r].  This is the
   cached form of the seed's per-row [col_idx] + [Array.append]-widened
   row indexing. *)
let reader v gi =
  let np = Array.length v.parts in
  let rec find p =
    if p >= np then err "executor: column %d out of range" gi
    else begin
      let { batch; off; width } = v.parts.(p) in
      if gi >= off && gi < off + width then begin
        let rows = Batch.unsafe_rows batch in
        let rid = v.rids.(p) in
        let lc = gi - off in
        fun r -> rows.(rid.(r)).(lc)
      end
      else find (p + 1)
    end
  in
  find 0

let attr_reader v a = reader v (col_idx_exn v a)

(* [rid.(sel.(i))] for every i.  A join's output can run to millions
   of rows with no operator charge until the next one, so the gather
   polls the ambient governor every [gather_block] rows; the deadline
   then fires inside it.  Callers run on the calling domain only ([poll]
   mutates the governor's per-fork stride). *)
let gather_block = 4096

let gather rid sel =
  let n = Array.length sel in
  let out = Array.make n 0 in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + gather_block) in
    for i = !lo to hi - 1 do
      out.(i) <- rid.(sel.(i))
    done;
    g_poll ();
    lo := hi
  done;
  out

(* Keep output rows whose index is in [sel] (in [sel] order). *)
let select_rows v sel =
  {
    v with
    nrows = Array.length sel;
    rids = Array.map (fun rid -> gather rid sel) v.rids;
  }

(* Concatenate two views row-wise under selection vectors: output row i
   is left row lsel.(i) widened with right row rsel.(i) — except nothing
   is widened; both sides' rid columns are gathered and the right part
   offsets shifted.  This is the join "materialization" step: O(parts)
   int-array gathers, no value copies. *)
let join_vrels left lsel right rsel =
  let lw = Array.length left.header in
  let n = Array.length lsel in
  {
    header = Array.append left.header right.header;
    parts =
      Array.append left.parts
        (Array.map (fun p -> { p with off = p.off + lw }) right.parts);
    nrows = n;
    rids =
      Array.append
        (Array.map (fun rid -> gather rid lsel) left.rids)
        (Array.map (fun rid -> gather rid rsel) right.rids);
  }

(* Like [join_vrels] but the right side is a raw base batch whose row ids
   are already the selection vector (index-nested-loop output). *)
let append_base left lsel bh batch bsel =
  let lw = Array.length left.header in
  let n = Array.length lsel in
  {
    header = Array.append left.header bh;
    parts =
      Array.append left.parts
        [| { batch; off = lw; width = Array.length bh } |];
    nrows = n;
    rids =
      Array.append (Array.map (fun rid -> gather rid lsel) left.rids) [| bsel |];
  }

(* Growable int array for selection vectors and rid-pair output. *)
module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 64 0; n = 0 }

  let add b i =
    if b.n = Array.length b.a then begin
      let na = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 na 0 b.n;
      b.a <- na
    end;
    b.a.(b.n) <- i;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end

(* A FROM item the join loop has not touched yet.  Base tables stay lazy
   so the loop can pick index access paths (index-equality materialization
   and index-nested-loop joins) instead of scanning. *)
type source =
  | S_mat of vrel
  | S_base of { alias : string; tbl : Table.t }

let source_card = function
  | S_mat v -> v.nrows
  | S_base { tbl; _ } -> Table.cardinality tbl

let source_header = function
  | S_mat v -> v.header
  | S_base { alias; tbl } -> base_header alias tbl

(* --------------------------------------------------------------------- *)
(* Row-key hash tables (for distinct, grouping)                           *)
(* --------------------------------------------------------------------- *)

module Key = struct
  type t = Value.t array

  let equal a b =
    Array.length a = Array.length b
    &&
    let rec go i =
      i >= Array.length a || (Value.equal a.(i) b.(i) && go (i + 1))
    in
    go 0

  let hash a = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 a
end

module KH = Hashtbl.Make (Key)

(* Int-keyed table for the join build side: keys are combined value
   hashes (no boxed key arrays); collisions are resolved by comparing the
   actual key columns at probe time. *)
module IH = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* --------------------------------------------------------------------- *)
(* Predicate evaluation                                                   *)
(* --------------------------------------------------------------------- *)

let eval_cmp op a b =
  match op with
  | Eq -> Value.equal a b
  | Ne -> not (Value.equal a b)
  | Lt -> Value.compare a b < 0
  | Le -> Value.compare a b <= 0
  | Gt -> Value.compare a b > 0
  | Ge -> Value.compare a b >= 0

(* Compile a predicate into a closure over row indices of [v].  Column
   positions are resolved once here, not per row.  All attributes must
   resolve in [v]'s header. *)
let compile_pred v p =
  let scalar = function
    | S_const c -> fun _ -> c
    | S_attr a -> attr_reader v a
  in
  let rec go = function
    | P_true -> fun _ -> true
    | P_false -> fun _ -> false
    | P_not p ->
        let f = go p in
        fun r -> not (f r)
    | P_and ps ->
        let fs = List.map go ps in
        fun r -> List.for_all (fun f -> f r) fs
    | P_or ps ->
        let fs = List.map go ps in
        fun r -> List.exists (fun f -> f r) fs
    | P_cmp (op, l, r) ->
        let fl = scalar l and fr = scalar r in
        fun row -> eval_cmp op (fl row) (fr row)
  in
  go p

let rec pred_tvs acc = function
  | P_true | P_false -> acc
  | P_not p -> pred_tvs acc p
  | P_and ps | P_or ps -> List.fold_left pred_tvs acc ps
  | P_cmp (_, l, r) ->
      let s acc = function S_attr a -> a.tv :: acc | S_const _ -> acc in
      s (s acc l) r

let tvs_of_pred p = List.sort_uniq String.compare (pred_tvs [] p)

(* A constant predicate (no attributes) evaluated against no row. *)
let const_pred_holds p = compile_pred (empty_vrel [||]) p 0

(* --------------------------------------------------------------------- *)
(* FROM materialization                                                   *)
(* --------------------------------------------------------------------- *)

let rec source_of_from db item : string * source =
  match item with
  | F_rel r -> (
      match Database.find_table db r.rel with
      | None -> err "executor: unknown table %s" r.rel
      | Some t -> (r.alias, S_base { alias = r.alias; tbl = t }))
  | F_derived (c, alias) ->
      let res = run_compound db c in
      let header = Array.map (fun c -> (alias, c)) res.cols in
      (alias, S_mat (vrel_of_batch header (Batch.of_list res.rows)))

and materialize_from db item : vrel =
  match source_of_from db item with
  | _, S_mat v -> v
  | _, S_base { alias; tbl } -> vrel_of_table alias tbl

(* --------------------------------------------------------------------- *)
(* Conjunctive planning: pushdown + greedy rid joins                      *)
(* --------------------------------------------------------------------- *)

and filter_vrel v preds =
  match preds with
  | [] -> v
  | _ -> (
      let f = compile_pred v (conj preds) in
      match par_filter v f with
      | Some sel ->
          if Array.length sel = v.nrows then v else select_rows v sel
      | None ->
          let sel = Ibuf.create () in
          for r = 0 to v.nrows - 1 do
            g_poll ();
            if f r then Ibuf.add sel r
          done;
          g_rows sel.Ibuf.n;
          if sel.Ibuf.n = v.nrows then v else select_rows v (Ibuf.to_array sel))

(* Partitioned scan: contiguous row ranges filtered on the pool, their
   selection vectors concatenated in range order — the very same row
   order the sequential loop emits. *)
and par_filter v f =
  match par_pool v.nrows with
  | None -> None
  | Some p ->
      let csize, nchunks = plan_chunks (Putil.Dpool.size p) v.nrows in
      let parent = !governor in
      let chunk i =
        let poll, charge = fork_hooks parent in
        let lo = i * csize and hi = min v.nrows ((i + 1) * csize) in
        let sel = Ibuf.create () in
        for r = lo to hi - 1 do
          poll ();
          if f r then Ibuf.add sel r
        done;
        charge sel.Ibuf.n;
        Ibuf.to_array sel
      in
      Option.map concat_int_arrays (Putil.Dpool.try_map p nchunks chunk)

(* Hash join producing row-id pairs.  The build side is bucketed by a
   combined int hash of its key columns (no per-row key arrays); probe
   hits verify the actual key values.  Output rows are (left-id,
   right-id) selection vectors handed to [join_vrels] — tuples are not
   widened here. *)
and hash_join left right keys =
  let lread =
    Array.of_list (List.map (fun (a, _) -> attr_reader left a) keys)
  in
  let rread =
    Array.of_list (List.map (fun (_, b) -> attr_reader right b) keys)
  in
  let nk = Array.length lread in
  (* Build on the smaller input. *)
  let swap = right.nrows < left.nrows in
  let bread, bn, pread, pn =
    if swap then (rread, right.nrows, lread, left.nrows)
    else (lread, left.nrows, rread, right.nrows)
  in
  let hash_row reads r =
    let h = ref 17 in
    for i = 0 to nk - 1 do
      h := (!h * 31) + Value.hash (reads.(i) r)
    done;
    !h land max_int
  in
  Chaos.point Chaos.Join_build;
  (* Partitioned build: the build rows are carved into contiguous index
     ranges, one private table per range — no shared mutable table, no
     locks.  A range's bucket lists are in *descending* build-row order
     (rows inserted ascending, consed onto the list), exactly like the
     single sequential table's; because the ranges are contiguous and
     probed from the last partition down to the first, the candidate
     order each probe row sees is globally descending — the same
     candidate sequence, hence the same emission bytes, as the
     one-table sequential build. *)
  let build_range poll lo hi =
    let h = IH.create (max 16 (hi - lo)) in
    if nk = 1 then begin
      let bread0 = bread.(0) in
      for r = lo to hi - 1 do
        poll ();
        let k = Value.hash (bread0 r) land max_int in
        match IH.find h k with
        | l -> l := r :: !l
        | exception Not_found -> IH.add h k (ref [ r ])
      done
    end
    else
      for r = lo to hi - 1 do
        poll ();
        let k = hash_row bread r in
        match IH.find h k with
        | l -> l := r :: !l
        | exception Not_found -> IH.add h k (ref [ r ])
      done;
    h
  in
  let tables =
    match par_pool bn with
    | None -> [| build_range g_poll 0 bn |]
    | Some p -> (
        (* One partition per lane (not per chunk): every probe row
           visits every partition, so the partition count is a probe
           cost, not a stealing knob. *)
        let lanes = Putil.Dpool.size p in
        let csize = max 1 ((bn + lanes - 1) / lanes) in
        let nparts = (bn + csize - 1) / csize in
        let parent = !governor in
        let part i =
          let poll, _ = fork_hooks parent in
          build_range poll (i * csize) (min bn ((i + 1) * csize))
        in
        match Putil.Dpool.try_map p nparts part with
        | Some ts -> ts
        | None -> [| build_range g_poll 0 bn |])
  in
  let ntab = Array.length tables in
  Chaos.point Chaos.Join_probe;
  (* Single-key joins (the overwhelmingly common case) skip the key loop:
     one hash, one reader call, one equality per candidate.  [find] +
     exception rather than [find_opt] so probe hits allocate nothing, and
     the emit loops take the probe row as an argument so their closures
     are built once, not per row. *)
  let probe_range poll lo hi =
    let bsel = Ibuf.create () and psel = Ibuf.create () in
    if nk = 1 then begin
      let bread0 = bread.(0) and pread0 = pread.(0) in
      let rec emit pr pv = function
        | [] -> ()
        | br :: tl ->
            if Value.equal (bread0 br) pv then begin
              Ibuf.add bsel br;
              Ibuf.add psel pr
            end;
            emit pr pv tl
      in
      for pr = lo to hi - 1 do
        poll ();
        let pv = pread0 pr in
        let k = Value.hash pv land max_int in
        for ti = ntab - 1 downto 0 do
          match IH.find tables.(ti) k with
          | cands -> emit pr pv !cands
          | exception Not_found -> ()
        done
      done
    end
    else begin
      let rec keys_eq br pr i =
        i >= nk
        || (Value.equal (bread.(i) br) (pread.(i) pr) && keys_eq br pr (i + 1))
      in
      let rec emit pr = function
        | [] -> ()
        | br :: tl ->
            if keys_eq br pr 0 then begin
              Ibuf.add bsel br;
              Ibuf.add psel pr
            end;
            emit pr tl
      in
      for pr = lo to hi - 1 do
        poll ();
        let k = hash_row pread pr in
        for ti = ntab - 1 downto 0 do
          match IH.find tables.(ti) k with
          | cands -> emit pr !cands
          | exception Not_found -> ()
        done
      done
    end;
    (bsel, psel)
  in
  let seq_probe () =
    let bsel, psel = probe_range g_poll 0 pn in
    g_rows psel.Ibuf.n;
    (Ibuf.to_array bsel, Ibuf.to_array psel)
  in
  let pairs =
    match par_pool pn with
    | None -> [| seq_probe () |]
    | Some p -> (
        let csize, nchunks = plan_chunks (Putil.Dpool.size p) pn in
        let parent = !governor in
        let chunk i =
          let poll, charge = fork_hooks parent in
          let lo = i * csize and hi = min pn ((i + 1) * csize) in
          let bsel, psel = probe_range poll lo hi in
          charge psel.Ibuf.n;
          (Ibuf.to_array bsel, Ibuf.to_array psel)
        in
        match Putil.Dpool.try_map p nchunks chunk with
        | Some parts -> parts
        | None -> [| seq_probe () |])
  in
  let bsel = concat_int_arrays (Array.map fst pairs)
  and psel = concat_int_arrays (Array.map snd pairs) in
  let lsel, rsel = if swap then (psel, bsel) else (bsel, psel) in
  join_vrels left lsel right rsel

and cross_product left right =
  let n = left.nrows * right.nrows in
  (* Account for the output *before* allocating it: a budget of a few
     rows must stop a runaway cross product without first building its
     selection vectors. *)
  g_rows n;
  let lsel = Array.make n 0 and rsel = Array.make n 0 in
  let k = ref 0 in
  for i = 0 to left.nrows - 1 do
    for j = 0 to right.nrows - 1 do
      lsel.(!k) <- i;
      rsel.(!k) <- j;
      incr k
    done;
    g_poll ()
  done;
  join_vrels left lsel right rsel

(* Materialize a base table under its local predicates, choosing an
   access path: if some equality predicate lands on an indexed column the
   matching row ids are fetched through the index and the remaining
   predicates are applied to them; otherwise a filtered scan.  Either way
   the result is a view over the table's storage batch — no row copies. *)
and materialize_base ~preds alias tbl : vrel =
  let header = base_header alias tbl in
  let index_probe =
    List.find_map
      (fun p ->
        match p with
        | P_cmp (Eq, S_attr a, S_const v) | P_cmp (Eq, S_const v, S_attr a)
          when Table.has_index tbl a.col ->
            Some (a.col, v, p)
        | _ -> None)
      preds
  in
  match index_probe with
  | Some (col, v, used) ->
      Chaos.point Chaos.Scan;
      let rest = List.filter (fun p -> p != used) preds in
      let ids = Array.of_list (Table.lookup_ids tbl col v) in
      filter_vrel (vrel_of_ids header (Table.batch tbl) ids) rest
  | None -> filter_vrel (vrel_of_table alias tbl) preds

(* Index-nested-loop join: [keys] are (probe-side, base-side) equi-join
   attributes; rows of [current] probe the base table's index on the
   first indexed base column, and the remaining key equalities are
   checked on each match.  Cost is proportional to |current| plus the
   output — never a scan of the base table — and the output is row-id
   pairs into [current] and the table batch. *)
and index_nl_join current keys alias tbl : vrel option =
  let indexed, others =
    List.partition
      (fun ((_ : attr), (b : attr)) -> Table.has_index tbl b.col)
      keys
  in
  match indexed with
  | [] -> None
  | (pa, pb) :: rest_indexed ->
      let others = rest_indexed @ others in
      let pread = attr_reader current pa in
      let bh = base_header alias tbl in
      let brows = Batch.unsafe_rows (Table.batch tbl) in
      let base_idx (b : attr) =
        match Schema.col_index (Table.schema tbl) b.col with
        | Some i -> i
        | None -> err "executor: no column %s in %s" b.col alias
      in
      let checks =
        Array.of_list
          (List.map (fun (a, b) -> (attr_reader current a, base_idx b)) others)
      in
      let nc = Array.length checks in
      let probe =
        match Table.prober tbl pb.col with
        | Some p -> p
        | None -> err "executor: index vanished on %s.%s" alias pb.col
      in
      Chaos.point Chaos.Join_probe;
      (* The emit loops take [r] as an argument so the closures are
         allocated once, not per probed row.  The index prober is a pure
         hash lookup over the (immutable) table index, so probe ranges
         parallelize like scan ranges: contiguous chunks, concatenated
         in chunk order. *)
      let probe_range poll lo hi =
        let csel = Ibuf.create () and bsel = Ibuf.create () in
        if nc = 0 then begin
          let rec emit r = function
            | [] -> ()
            | bi :: tl ->
                Ibuf.add csel r;
                Ibuf.add bsel bi;
                emit r tl
          in
          for r = lo to hi - 1 do
            poll ();
            emit r (probe (pread r))
          done
        end
        else begin
          let rec check_ok r bi i =
            i >= nc
            ||
            let cread, bci = checks.(i) in
            Value.equal (cread r) brows.(bi).(bci) && check_ok r bi (i + 1)
          in
          let rec emit r = function
            | [] -> ()
            | bi :: tl ->
                if check_ok r bi 0 then begin
                  Ibuf.add csel r;
                  Ibuf.add bsel bi
                end;
                emit r tl
          in
          for r = lo to hi - 1 do
            poll ();
            emit r (probe (pread r))
          done
        end;
        (csel, bsel)
      in
      let seq_probe () =
        let csel, bsel = probe_range g_poll 0 current.nrows in
        g_rows csel.Ibuf.n;
        (Ibuf.to_array csel, Ibuf.to_array bsel)
      in
      let pairs =
        match par_pool current.nrows with
        | None -> [| seq_probe () |]
        | Some p -> (
            let csize, nchunks =
              plan_chunks (Putil.Dpool.size p) current.nrows
            in
            let parent = !governor in
            let chunk i =
              let poll, charge = fork_hooks parent in
              let lo = i * csize
              and hi = min current.nrows ((i + 1) * csize) in
              let csel, bsel = probe_range poll lo hi in
              charge csel.Ibuf.n;
              (Ibuf.to_array csel, Ibuf.to_array bsel)
            in
            match Putil.Dpool.try_map p nchunks chunk with
            | Some parts -> parts
            | None -> [| seq_probe () |])
      in
      let csel = concat_int_arrays (Array.map fst pairs)
      and bsel = concat_int_arrays (Array.map snd pairs) in
      Some (append_base current csel bh (Table.batch tbl) bsel)

(* Evaluate a conjunctive block: [sources] is an association
   (tv -> source) — base tables lazy, derived tables materialized;
   [conjuncts] the predicate factors.  Returns the joined vrel covering
   every tv in [sources].  The next join is greedily the joinable
   relation with the smallest input. *)
and join_conjunctive (sources : (string * source) list) conjuncts : vrel =
  (* Classify conjuncts. *)
  let local, joins, residual =
    List.fold_left
      (fun (local, joins, residual) p ->
        match p with
        | P_cmp (Eq, S_attr a, S_attr b) when a.tv <> b.tv ->
            (local, (a, b) :: joins, residual)
        | _ -> (
            match tvs_of_pred p with
            | [ tv ] -> ((tv, p) :: local, joins, residual)
            | [] -> (local, joins, p :: residual) (* constant predicate *)
            | _ -> (local, joins, p :: residual)))
      ([], [], []) conjuncts
  in
  (* Constant predicates: a constant FALSE empties everything. *)
  let const_preds, residual =
    List.partition (fun p -> tvs_of_pred p = []) residual
  in
  let const_ok = List.for_all const_pred_holds const_preds in
  (* Pushdown local filters: any tv carrying one is materialized through
     its best access path; unfiltered base tables stay lazy so the join
     loop can probe them with index-nested loops. *)
  let sources =
    List.map
      (fun (tv, src) ->
        let preds =
          List.filter_map (fun (t, p) -> if t = tv then Some p else None) local
        in
        if not const_ok then (tv, S_mat (empty_vrel (source_header src)))
        else
          match (src, preds) with
          | S_base _, [] -> (tv, src)
          | S_base { alias; tbl }, preds ->
              (tv, S_mat (materialize_base ~preds alias tbl))
          | S_mat v, preds -> (tv, S_mat (filter_vrel v preds)))
      sources
  in
  let force = function
    | S_mat v -> v
    | S_base { alias; tbl } -> vrel_of_table alias tbl
  in
  match sources with
  | [] -> err "executor: empty FROM"
  | _ ->
      let remaining = ref sources in
      let joins = ref joins in
      let residual = ref residual in
      (* Joined tuple variables, as a hash set: the join-ordering loop
         tests membership per edge per round. *)
      let joined_tvs : (string, unit) Hashtbl.t = Hashtbl.create 8 in
      let is_joined tv = Hashtbl.mem joined_tvs tv in
      let mark_joined tv = Hashtbl.replace joined_tvs tv () in
      (* Start from the smallest (estimated) relation. *)
      let smallest () =
        List.fold_left
          (fun best (tv, src) ->
            match best with
            | None -> Some (tv, src)
            | Some (_, bsrc) ->
                if source_card src < source_card bsrc then Some (tv, src)
                else best)
          None !remaining
      in
      let tv0, src0 = Option.get (smallest ()) in
      remaining := List.remove_assoc tv0 !remaining;
      let current = ref (force src0) in
      mark_joined tv0;
      let apply_ready_residuals () =
        let ready, rest =
          List.partition
            (fun p -> List.for_all is_joined (tvs_of_pred p))
            !residual
        in
        residual := rest;
        if ready <> [] then current := filter_vrel !current ready
      in
      apply_ready_residuals ();
      while !remaining <> [] do
        (* Find join edges from the joined set to a single new tv. *)
        let edge_groups = Hashtbl.create 8 in
        List.iter
          (fun (a, b) ->
            let a_in = is_joined a.tv and b_in = is_joined b.tv in
            if a_in && not b_in then begin
              let l = try Hashtbl.find edge_groups b.tv with Not_found -> [] in
              Hashtbl.replace edge_groups b.tv ((a, b) :: l)
            end
            else if b_in && not a_in then begin
              let l = try Hashtbl.find edge_groups a.tv with Not_found -> [] in
              Hashtbl.replace edge_groups a.tv ((b, a) :: l)
            end)
          !joins;
        let next =
          Hashtbl.fold
            (fun tv keys best ->
              match List.assoc_opt tv !remaining with
              | None -> best
              | Some src -> (
                  let s = source_card src in
                  match best with
                  | Some (_, _, _, bs) when bs <= s -> best
                  | _ -> Some (tv, src, keys, s)))
            edge_groups None
          |> Option.map (fun (tv, src, keys, _) -> (tv, src, keys))
        in
        (match next with
        | Some (tv, src, keys) ->
            (* keys are (already-joined attr, new attr) pairs.  Against a
               lazy base table with an index on a join column, probe with
               an index-nested loop; otherwise hash join the
               materialization. *)
            let joined =
              match src with
              | S_base { alias; tbl } -> (
                  match index_nl_join !current keys alias tbl with
                  | Some v -> v
                  | None -> hash_join !current (force src) keys)
              | S_mat v -> hash_join !current v keys
            in
            current := joined;
            mark_joined tv;
            remaining := List.remove_assoc tv !remaining;
            (* The join keys are now satisfied; drop them so the
               internal-edge sweep below does not re-filter on them. *)
            joins :=
              List.filter
                (fun (a, b) ->
                  not
                    (List.exists
                       (fun (ka, kb) ->
                         (equal_attr a ka && equal_attr b kb)
                         || (equal_attr a kb && equal_attr b ka))
                       keys))
                !joins
        | None ->
            (* No connecting edge: cartesian step with the smallest rest. *)
            let tv, src = Option.get (smallest ()) in
            current := cross_product !current (force src);
            mark_joined tv;
            remaining := List.remove_assoc tv !remaining);
        (* Enforce any join edge that has become internal (both sides
           joined) but was not one of the hash keys. *)
        let internal, external_ =
          List.partition (fun (a, b) -> is_joined a.tv && is_joined b.tv) !joins
        in
        joins := external_;
        if internal <> [] then
          current :=
            filter_vrel !current
              (List.map (fun (a, b) -> P_cmp (Eq, S_attr a, S_attr b)) internal);
        apply_ready_residuals ()
      done;
      apply_ready_residuals ();
      if !residual <> [] then
        err "executor: residual predicates with unknown tuple variables";
      !current

(* --------------------------------------------------------------------- *)
(* Aggregation                                                            *)
(* --------------------------------------------------------------------- *)

(* [rows] are output-row indices of [v] (one group). *)
and agg_of_rows v agg (rows : int list) =
  match agg with
  | A_count_star ->
      let rec len acc = function [] -> acc | _ :: t -> len (acc + 1) t in
      Value.Int (len 0 rows)
  | A_count a ->
      let read = attr_reader v a in
      Value.Int
        (List.fold_left
           (fun n r -> if read r <> Value.Null then n + 1 else n)
           0 rows)
  | A_sum a ->
      let read = attr_reader v a in
      let fsum, is_float =
        List.fold_left
          (fun (acc, isf) r ->
            match read r with
            | Value.Int v -> (acc +. float_of_int v, isf)
            | Value.Float v -> (acc +. v, true)
            | Value.Null -> (acc, isf)
            | v -> err "sum over non-numeric value %s" (Value.to_string v))
          (0., false) rows
      in
      if is_float then Value.Float fsum else Value.Int (int_of_float fsum)
  | A_min a ->
      let read = attr_reader v a in
      List.fold_left
        (fun acc r ->
          let x = read r in
          if x = Value.Null then acc
          else
            match acc with
            | Value.Null -> x
            | m -> if Value.compare x m < 0 then x else m)
        Value.Null rows
  | A_max a ->
      let read = attr_reader v a in
      List.fold_left
        (fun acc r ->
          let x = read r in
          if x = Value.Null then acc
          else
            match acc with
            | Value.Null -> x
            | m -> if Value.compare x m > 0 then x else m)
        Value.Null rows
  | A_avg a ->
      let read = attr_reader v a in
      let sum, n =
        List.fold_left
          (fun (acc, n) r ->
            match read r with
            | Value.Int v -> (acc +. float_of_int v, n + 1)
            | Value.Float v -> (acc +. v, n + 1)
            | Value.Null -> (acc, n)
            | v -> err "avg over non-numeric value %s" (Value.to_string v))
          (0., 0) rows
      in
      if n = 0 then Value.Null else Value.Float (sum /. float_of_int n)
  | A_doi_conj (doi_a, pref_a) ->
      (* The paper's aggregate: combine, with the conjunctive function
         1 - prod(1 - d_i), the degrees of the *distinct* preferences the
         group satisfies (a preference can reach a row through several
         partial queries only once). *)
      let dread = attr_reader v doi_a and pread = attr_reader v pref_a in
      let seen = KH.create 8 in
      let prod = ref 1.0 in
      List.iter
        (fun r ->
          let key = [| pread r |] in
          if not (KH.mem seen key) then begin
            KH.add seen key ();
            let d =
              match dread r with
              | Value.Float f -> f
              | Value.Int i -> float_of_int i
              | v ->
                  err "degree_of_conjunction over non-numeric %s"
                    (Value.to_string v)
            in
            prod := !prod *. (1. -. d)
          end)
        rows;
      Value.Float (1. -. !prod)

and eval_having v rows h =
  let rec go = function
    | H_and hs -> List.for_all go hs
    | H_or hs -> List.exists go hs
    | H_cmp (op, l, r) ->
        let value = function
          | H_agg a -> agg_of_rows v a rows
          | H_const c -> c
        in
        eval_cmp op (value l) (value r)
  in
  go h

(* --------------------------------------------------------------------- *)
(* Post-pipeline: group / having / order / project / distinct / limit     *)
(* --------------------------------------------------------------------- *)

and post_pipeline (q : query) (w : vrel) : result =
  (* The projection produces [w.nrows] rows (before DISTINCT/LIMIT);
     account for them up front so a scan-only query is still governed. *)
  g_rows w.nrows;
  let has_aggs =
    List.exists (function Sel_agg _ -> true | _ -> false) q.select
    || q.having <> None
    || List.exists (function O_agg _, _ -> true | _ -> false) q.order_by
  in
  let grouped = q.group_by <> [] || has_aggs in
  let out_names = Array.of_list (select_output_names q) in
  let alias_idx name =
    let rec go i =
      if i >= Array.length out_names then
        err "ORDER BY alias %s not in output" name
      else if out_names.(i) = name then i
      else go (i + 1)
    in
    go 0
  in
  if (not grouped) && q.order_by = [] then begin
    (* Fast path for the plain SPJ shape (every UNION ALL branch the MQ
       integration method emits): no sort keys, so skip the (row, keys)
       tuple plumbing — project straight into the output list, applying
       DISTINCT as we go. *)
    let item_fns =
      Array.of_list
        (List.map
           (function
             | Sel_attr (a, _) -> attr_reader w a
             | Sel_const (v, _) -> fun _ -> v
             | Sel_agg _ -> err "aggregate in ungrouped projection")
           q.select)
    in
    let ni = Array.length item_fns in
    let project r = Array.init ni (fun i -> (item_fns.(i)) r) in
    (* Projection is embarrassingly parallel (readers are pure); the
       DISTINCT hash insertion is order-dependent, so under the pool
       rows are projected in parallel chunks and de-duplicated in a
       sequential pass over the chunks in range order — the same
       first-occurrence-wins order as the sequential loop. *)
    let projected_chunks () =
      match par_pool w.nrows with
      | None -> None
      | Some p ->
          let csize, nchunks = plan_chunks (Putil.Dpool.size p) w.nrows in
          let parent = !governor in
          let chunk i =
            let poll, _ = fork_hooks parent in
            let lo = i * csize and hi = min w.nrows ((i + 1) * csize) in
            Array.init (hi - lo) (fun j ->
                poll ();
                project (lo + j))
          in
          Putil.Dpool.try_map p nchunks chunk
    in
    let rows =
      if q.distinct then begin
        let seen = KH.create 64 in
        let acc = ref [] in
        let consider out =
          if not (KH.mem seen out) then begin
            KH.add seen out ();
            acc := out :: !acc
          end
        in
        (match projected_chunks () with
        | Some chunks -> Array.iter (fun c -> Array.iter consider c) chunks
        | None ->
            for r = 0 to w.nrows - 1 do
              g_poll ();
              consider (project r)
            done);
        List.rev !acc
      end
      else
        match projected_chunks () with
        | Some chunks ->
            Array.fold_right
              (fun c acc -> Array.fold_right (fun row acc -> row :: acc) c acc)
              chunks []
        | None -> List.init w.nrows project
    in
    let rows =
      match q.limit with
      | None -> rows
      | Some n -> List.filteri (fun i _ -> i < n) rows
    in
    { cols = out_names; rows }
  end
  else
  let projected_with_keys =
    if grouped then begin
      (* Group row indices by key. *)
      let kreads = Array.of_list (List.map (attr_reader w) q.group_by) in
      let nk = Array.length kreads in
      let groups = KH.create 64 in
      let order = ref [] in
      for r = 0 to w.nrows - 1 do
        let k = Array.init nk (fun i -> kreads.(i) r) in
        match KH.find_opt groups k with
        | Some l -> l := r :: !l
        | None ->
            KH.add groups k (ref [ r ]);
            order := k :: !order
      done;
      let keys_in_order = List.rev !order in
      List.filter_map
        (fun k ->
          let rows = !(KH.find groups k) in
          let keep =
            match q.having with
            | None -> true
            | Some h -> eval_having w rows h
          in
          if not keep then None
          else begin
            (* Lazy: an all-aggregate projection over an empty group (the
               GROUP-BY-less aggregate case) never touches a row. *)
            let rep = lazy (List.hd rows) in
            let out =
              Array.of_list
                (List.map
                   (function
                     | Sel_attr (a, _) -> attr_reader w a (Lazy.force rep)
                     | Sel_const (v, _) -> v
                     | Sel_agg (agg, _) -> agg_of_rows w agg rows)
                   q.select)
            in
            let sort_key =
              List.map
                (fun (key, d) ->
                  let v =
                    match key with
                    | O_attr a -> attr_reader w a (Lazy.force rep)
                    | O_agg agg -> agg_of_rows w agg rows
                    | O_alias name -> out.(alias_idx name)
                  in
                  (v, d))
                q.order_by
            in
            Some (out, sort_key)
          end)
        keys_in_order
    end
    else begin
      (* Compile projection and sort-key extractors once, then run them
         over the row indices. *)
      let item_fns =
        List.map
          (function
            | Sel_attr (a, _) -> attr_reader w a
            | Sel_const (v, _) -> fun _ -> v
            | Sel_agg _ -> err "aggregate in ungrouped projection")
          q.select
      in
      let okey_fns =
        List.map
          (fun (key, d) ->
            match key with
            | O_attr a ->
                let f = attr_reader w a in
                fun r (_ : Value.t array) -> (f r, d)
            | O_agg _ -> err "ORDER BY aggregate in ungrouped query"
            | O_alias name ->
                let i = alias_idx name in
                fun _ out -> (out.(i), d))
          q.order_by
      in
      List.init w.nrows (fun r ->
          let out = Array.of_list (List.map (fun f -> f r) item_fns) in
          (out, List.map (fun f -> f r out) okey_fns))
    end
  in
  (* DISTINCT before ORDER BY (SQL evaluation order). *)
  let projected_with_keys =
    if q.distinct then begin
      let seen = KH.create 64 in
      List.filter
        (fun (out, _) ->
          if KH.mem seen out then false
          else begin
            KH.add seen out ();
            true
          end)
        projected_with_keys
    end
    else projected_with_keys
  in
  let sorted =
    match q.order_by with
    | [] -> projected_with_keys
    | _ ->
        List.stable_sort
          (fun (_, k1) (_, k2) ->
            let rec cmp ks1 ks2 =
              match (ks1, ks2) with
              | [], [] -> 0
              | (v1, d) :: r1, (v2, _) :: r2 ->
                  let c = Value.compare v1 v2 in
                  let c = match d with Asc -> c | Desc -> -c in
                  if c <> 0 then c else cmp r1 r2
              | _ -> 0
            in
            cmp k1 k2)
          projected_with_keys
  in
  let rows = List.map fst sorted in
  let rows =
    match q.limit with
    | None -> rows
    | Some n -> List.filteri (fun i _ -> i < n) rows
  in
  { cols = out_names; rows }

(* --------------------------------------------------------------------- *)
(* DNF splitting (for DISTINCT + disjunctive qualifications, i.e. SQ)     *)
(* --------------------------------------------------------------------- *)

and dnf_branches cap p : pred list list option =
  (* Returns up to [cap] conjunctions of "literal" predicates, or None if
     the expansion would exceed [cap]. *)
  let product l1 l2 =
    List.concat_map (fun c1 -> List.map (fun c2 -> c1 @ c2) l2) l1
  in
  let rec go p : pred list list option =
    match p with
    | P_true -> Some [ [] ]
    | P_false -> Some []
    | P_cmp _ | P_not _ -> Some [ [ p ] ]
    | P_or ps ->
        List.fold_left
          (fun acc p ->
            match (acc, go p) with
            | Some a, Some b when List.length a + List.length b <= cap ->
                Some (a @ b)
            | _ -> None)
          (Some []) ps
    | P_and ps ->
        List.fold_left
          (fun acc p ->
            match (acc, go p) with
            | Some a, Some b when List.length a * List.length b <= cap ->
                Some (product a b)
            | _ -> None)
          (Some [ [] ]) ps
  in
  go p

and contains_or = function
  | P_or _ -> true
  | P_and ps -> List.exists contains_or ps
  | P_not p -> contains_or p
  | _ -> false

and select_attrs q =
  List.filter_map (function Sel_attr (a, _) -> Some a | _ -> None) q.select

(* --------------------------------------------------------------------- *)
(* Top-level evaluation                                                   *)
(* --------------------------------------------------------------------- *)

and run_auto db (q : query) : result =
  let wrels = List.map (source_of_from db) q.from in
  let has_aggs =
    List.exists (function Sel_agg _ -> true | _ -> false) q.select
    || q.having <> None
  in
  let dnf_eligible =
    q.distinct && q.group_by = [] && (not has_aggs) && contains_or q.where
  in
  let dnf = if dnf_eligible then dnf_branches 4096 q.where else None in
  match dnf with
  | Some branches ->
      (* Evaluate each conjunctive branch over only the tuple variables it
         (or the output) references; unreferenced FROM entries must merely
         be non-empty (sound because DISTINCT erases multiplicities). *)
      let needed_base =
        List.sort_uniq String.compare
          (List.map (fun (a : attr) -> a.tv) (select_attrs q)
          @ List.concat_map
              (fun (k, _) -> match k with O_attr a -> [ a.tv ] | _ -> [])
              q.order_by)
      in
      let all_rows = ref [] in
      List.iter
        (fun branch ->
          let branch_tvs =
            List.sort_uniq String.compare
              (needed_base @ List.concat_map tvs_of_pred branch)
          in
          let used, unused =
            List.partition (fun (tv, _) -> List.mem tv branch_tvs) wrels
          in
          let nonempty_unused =
            List.for_all (fun (_, src) -> source_card src > 0) unused
          in
          if nonempty_unused && used <> [] then begin
            let joined = join_conjunctive used branch in
            let res =
              post_pipeline
                { q with where = P_true; order_by = []; limit = None }
                joined
            in
            all_rows := List.rev_append res.rows !all_rows
          end)
        branches;
      let merged =
        vrel_of_batch
          (Array.of_list
             (List.map (fun n -> ("", n)) (select_output_names q)))
          (Batch.of_list (List.rev !all_rows))
      in
      (* Re-run the tail of the pipeline on the merged projection for
         distinct / order / limit.  Column references now address the
         projected names: an ORDER BY attribute must map to the output
         name of the select item that produced it. *)
      let output_name_of (a : attr) =
        let rec go = function
          | [] -> err "ORDER BY column %s.%s not in DISTINCT output" a.tv a.col
          | Sel_attr (a', alias) :: _ when equal_attr a a' -> (
              match alias with Some al -> al | None -> a'.col)
          | _ :: rest -> go rest
        in
        go q.select
      in
      let q' =
        {
          q with
          from = [];
          where = P_true;
          select =
            List.map
              (function
                | Sel_attr (a, alias) ->
                    let name =
                      match alias with Some al -> al | None -> a.col
                    in
                    Sel_attr ({ tv = ""; col = name }, Some name)
                | item -> item)
              q.select;
          order_by =
            List.map
              (fun (k, d) ->
                ( (match k with
                  | O_attr a -> O_attr { tv = ""; col = output_name_of a }
                  | k -> k),
                  d ))
              q.order_by;
        }
      in
      post_pipeline q' merged
  | None ->
      let conjuncts = conjuncts q.where in
      (* Keep disjunctions and other non-splittable factors as residual
         filters inside the conjunctive join. *)
      let joined = join_conjunctive wrels conjuncts in
      post_pipeline { q with where = P_true } joined

and run_naive db (q : query) : result =
  let wrels = List.map (materialize_from db) q.from in
  let joined =
    match wrels with
    | [] -> err "executor: empty FROM"
    | w :: rest -> List.fold_left cross_product w rest
  in
  let filtered = filter_vrel joined [ q.where ] in
  post_pipeline { q with where = P_true } filtered

and run_compound db (c : compound) : result =
  match c with
  | C_single q -> run_auto db q
  | C_union_all [] -> err "executor: empty UNION ALL"
  | C_union_all (c :: cs) ->
      let first = run_compound db c in
      let rows =
        List.fold_left
          (fun acc c' ->
            let r = run_compound db c' in
            List.rev_append (List.rev r.rows) acc)
          first.rows cs
      in
      { first with rows }

let run ?(strategy = `Auto) ?gov db q =
  let saved = !governor in
  governor := gov;
  Fun.protect
    ~finally:(fun () -> governor := saved)
    (fun () ->
      (* A deadline that expired before we even start (or between ladder
         rungs) must trip deterministically, not after 64 polls. *)
      (match gov with Some g -> Governor.check_deadline g | None -> ());
      match strategy with
      | `Auto -> run_auto db q
      | `Naive -> run_naive db q)

(* --------------------------------------------------------------------- *)
(* Result helpers                                                         *)
(* --------------------------------------------------------------------- *)

let compare_rows (a : Value.t array) (b : Value.t array) =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let sort_rows r = { r with rows = List.sort compare_rows r.rows }

let result_equal_list a b =
  List.length a.rows = List.length b.rows
  && List.for_all2 (fun x y -> Key.equal x y) a.rows b.rows

let result_equal_bag a b = result_equal_list (sort_rows a) (sort_rows b)

let pp_result ?(max_rows = 20) fmt r =
  let shown = List.filteri (fun i _ -> i < max_rows) r.rows in
  let cells = List.map (fun row -> Array.map Value.to_string row) shown in
  let ncols = Array.length r.cols in
  let width = Array.make ncols 0 in
  Array.iteri (fun i c -> width.(i) <- String.length c) r.cols;
  List.iter
    (fun row ->
      Array.iteri (fun i s -> width.(i) <- max width.(i) (String.length s)) row)
    cells;
  let line sep =
    Format.pp_print_string fmt sep;
    Array.iteri
      (fun i _ ->
        Format.pp_print_string fmt (String.make (width.(i) + 2) '-');
        Format.pp_print_string fmt sep)
      width;
    Format.pp_print_newline fmt ()
  in
  let row_out (cells : string array) =
    Format.pp_print_string fmt "|";
    Array.iteri
      (fun i s -> Format.fprintf fmt " %-*s |" width.(i) s)
      cells;
    Format.pp_print_newline fmt ()
  in
  line "+";
  row_out r.cols;
  line "+";
  List.iter row_out cells;
  line "+";
  let total = List.length r.rows in
  if total > max_rows then
    Format.fprintf fmt "... (%d of %d rows shown)@." max_rows total
  else Format.fprintf fmt "(%d rows)@." total
