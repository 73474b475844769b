(** Effects-based single-domain event-loop runtime.

    The production sibling of the simulator's [Sched]: cooperative tasks
    over OCaml effects, a FIFO run queue, and an idle loop that parks in
    [Unix.select] over every fd a task is waiting on — a poll-style
    readiness loop on nonblocking sockets.  {!R} exposes it as a
    {!Runtime.S} instance, so [Server_core.Make (Evloop.R)] runs the
    whole worker-pool/admission/breaker/drain machinery unchanged on one
    domain; {!Server} serves on it.

    With [clock:`Virtual] no OS time or fd is ever touched: idle steps
    jump virtual time to the next timer and fd waits raise.  The sim's
    [Evloop_check] uses this to drive the runtime deterministically
    under the standard ledger/rwlock audits.

    All primitives must be called from inside {!run} (they perform
    effects handled by its scheduler loop); {!Failed} is raised
    otherwise.  A task exception not caught by the task is fatal to the
    whole loop. *)

exception Failed of string

type task

type clock = [ `Real | `Virtual ]

val run :
  ?clock:clock -> ?max_steps:int -> (unit -> unit) -> (unit, string) result
(** Run [main] plus everything it spawns to completion.  [Error] on
    deadlock (tasks alive, nothing runnable or pending), step-budget
    exhaustion, or a crashed task. *)

val spawn : ?name:string -> (unit -> unit) -> task
val join : task -> unit
val yield : unit -> unit

val now : unit -> float
(** Wall clock under [`Real], virtual seconds under [`Virtual]. *)

val sleep : float -> unit

val wait_readable : ?timeout:float -> Unix.file_descr -> bool
(** Park until the fd is readable; [false] when the relative [timeout]
    (seconds) elapsed first.  [`Real] clock only. *)

val wait_writable : ?timeout:float -> Unix.file_descr -> bool

val add_probe : (unit -> unit) -> unit
(** Invariant check run by the scheduler loop between steps.  Probes run
    outside any task and must not call runtime primitives. *)

(** The {!Runtime.S} instance. *)
module R : Runtime.S with type thread = task
