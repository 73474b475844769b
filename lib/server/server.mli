(** The concurrent personalization server's socket front end.

    One process serves many clients over a Unix-domain socket (and
    optionally TCP) with the line protocol of {!Protocol}.  Everything
    behind the wire — the bounded admission queue, the worker pool,
    per-request budgets, the breaker-gated profile store, graceful drain
    and the HEALTH ledger — is {!Server_core}, here instantiated on the
    single-domain {!Evloop} runtime:

    {v
    acceptor ──► connection tasks ──► bounded admission queue ──► worker tasks
       │               │                      │                       │
       │ over the cap: │ over-long line:      │ queue full /          │ per-request
       │ refuse        │ ERR, close           │ draining / expired    │ Governor budget
       ▼               ▼                      ▼                       ▼
    ERR overloaded  ERR parse           ERR overloaded         result / typed error
    v}

    Connections are cooperative tasks parked on fd readiness; replies
    render through the {!Protocol} buffer printers and go out in one
    batched write.  There is no preemption: a running query holds the
    loop until it finishes or its Governor deadline trips, so HEALTH and
    PING on other connections are answered between requests, not during
    one.

    Two bounds protect the loop from hostile clients, each a typed
    refusal counted in HEALTH:
    - at most {!max_connections} connections, and never an fd that
      select(2) cannot watch (FD_SETSIZE); a connection over the cap
      receives one [ERR overloaded] line and is closed
      ([refused_conn_limit]);
    - a request line longer than {!Protocol.max_line_bytes} gets an
      [ERR parse] line and its connection is closed, without waiting for
      the newline ([refused_line_too_long]). *)

type config = Server_core.config
type drain_outcome = Server_core.drain_outcome

val max_connections : int
(** Live connections served at once (1000, below FD_SETSIZE = 1024). *)

val run :
  ?stop_flag:bool Atomic.t ->
  ?on_started:((string * string) list -> unit) ->
  config ->
  Relal.Database.t ->
  drain_outcome
(** Bind the sockets and run the event loop on the calling thread until
    something requests a stop: [stop_flag] set true (safe from a signal
    handler — it is polled every 50 ms between tasks), a [SHUTDOWN]
    command, or a core-level stop.  Then drain as {!Server_core.Make.stop}
    does, shut every live connection down and join it.  [on_started]
    fires once inside the loop with the initial HEALTH counters, after
    the sockets are accepting.  What the CLI's [serve] runs.
    @raise Unix.Unix_error when binding fails
    @raise Failure when the loop itself fails (a runtime bug) *)

(** {2 Background handle}

    For tests and the bench harness: {!run} on a private OS thread. *)

type t

val start : config -> Relal.Database.t -> t
(** Returns once the sockets are accepting.  @raise Failure when binding
    or the loop fails at startup. *)

val request_stop : t -> unit
(** Idempotent, signal-safe. *)

val stop : t -> drain_outcome
(** Request a stop, join the loop thread, return the drain outcome. *)
