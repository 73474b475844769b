(** Query evaluation.

    The executor consumes {e bound} queries (see {!Binder.bind}) and
    produces materialized results.  Two strategies are available:

    - [`Auto] (default): per-table selection pushdown, greedy hash-join
      ordering over the equi-join conjuncts, residual predicates applied
      as soon as their tuple variables are joined.  For DISTINCT queries
      whose qualification contains disjunctions — the shape the SQ
      integration method produces (paper §6) — the qualification is split
      into DNF branches, each executed as a conjunctive plan, and the
      branch results are unioned and de-duplicated; this is semantically
      equivalent under DISTINCT and avoids the cross-product blow-up a
      naive evaluation of SQ's FROM list would suffer.
    - [`Naive]: textbook semantics — cross product of the FROM list,
      filter, then the same post-pipeline.  Exponential; used as the test
      oracle on small data.

    Post-pipeline (both strategies): GROUP BY / aggregates (including
    [DEGREE_OF_CONJUNCTION]) / HAVING, ORDER BY, projection, DISTINCT,
    LIMIT. *)

exception Exec_error of string

type result = { cols : string array; rows : Value.t array list }
(** Output column names (SELECT order) and rows. *)

val set_pool : Putil.Dpool.t option -> unit
(** Arm (or disarm) the ambient domain pool for data-parallel
    evaluation.  With a pool of [n > 1] lanes, large row loops — scans,
    hash-join build/probe sides, index-NL probes, the final projection —
    are partitioned into contiguous ranges and merged back in range
    order, so results are {e byte-identical} to the sequential path at
    every pool size.  Budgets still hold: ranges charge a
    {!Governor.fork} of the armed governor (shared atomic counters), so
    no domain overshoots [max_rows] or the deadline by more than one
    batch.  Concurrent callers (server worker threads) are safe: a busy
    pool makes the caller fall back to its sequential loop. *)

val run :
  ?strategy:[ `Auto | `Naive ] ->
  ?gov:Governor.t ->
  Database.t ->
  Sql_ast.query ->
  result
(** Evaluate a bound query.  [`Auto] (the default) plans conjunctive
    blocks with pushdown and greedy smallest-input row-id joins;
    [`Naive] evaluates the cross product of the FROM list and then
    filters — the reference semantics the tests compare against.
    [?gov] arms a {!Governor} budget for the duration of the call: the
    batch loops check it cooperatively, and row production is charged at
    every operator output (joins, filters, projection).
    @raise Governor.Exhausted when the armed budget is exceeded;
    @raise Chaos.Injected under armed fault injection;
    @raise Exec_error on internal violations (which indicate an unbound
    query or an engine bug). *)

val result_equal_bag : result -> result -> bool
(** Bag equality of rows (column names ignored); the test oracle's notion
    of equivalence for unordered queries. *)

val result_equal_list : result -> result -> bool
(** Ordered row-list equality (for ORDER BY tests). *)

val sort_rows : result -> result
(** Rows sorted lexicographically — normalization helper for comparing
    unordered results. *)

val pp_result : ?max_rows:int -> Format.formatter -> result -> unit
(** Column-aligned textual table; prints at most [max_rows] rows
    (default 20) followed by an ellipsis line. *)
