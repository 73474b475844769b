(** Concurrency substrate the server core is written against.

    Every primitive the serving stack needs from the operating system —
    the clock, sleeping, spawning and joining threads, mutexes and
    condition variables — is collected in one signature so the same
    server logic can run on several substrates:

    - {!Evloop.R}: the single-domain event loop the socket {!Server}
      serves on;
    - {!Threads}: real [Thread]/[Mutex]/[Condition]/[Unix.gettimeofday].
      It backs in-process cores only — tests, benchmarks and the serve
      benchmark's replay drive [Server_core.Make (Runtime.Threads)]
      directly, with no socket;
    - [Perso_sim.Sim_runtime.R]: a seeded single-threaded cooperative
      scheduler with a virtual clock, used by deterministic simulation
      so an entire serve/call session replays bit-for-bit from a seed.

    This generalizes the injectable-clock pattern already used by
    {!Breaker} ([?now]) and [Relal.Chaos.retry] ([?sleep]) from "inject
    one function" to "inject the whole substrate". *)

module type S = sig
  type thread
  type mutex
  type cond

  val now : unit -> float
  (** Seconds, [Unix.gettimeofday]-like. *)

  val sleep : float -> unit
  (** Sleep for the given number of seconds. *)

  val spawn : (unit -> unit) -> thread
  val join : thread -> unit
  val mutex_create : unit -> mutex
  val lock : mutex -> unit
  val unlock : mutex -> unit
  val cond_create : unit -> cond

  val wait : cond -> mutex -> unit
  (** Atomically release the mutex and wait; the mutex is held again
      when [wait] returns.  Standard condition-variable semantics:
      callers must re-check their predicate in a loop. *)

  val signal : cond -> unit
  val broadcast : cond -> unit
end

module Threads :
  S
    with type thread = Thread.t
     and type mutex = Mutex.t
     and type cond = Condition.t
(** Real threads and the real clock, for in-process cores. *)
