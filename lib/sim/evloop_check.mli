(** Simulation leg for the event-loop runtime.

    Runs [Server_core.Make (Evloop.R)] — the exact core behind
    [perso_cli serve] — on the event-loop scheduler's virtual clock
    with a seeded client fleet, probing rwlock exclusion every scheduler
    step and auditing the HEALTH ledger equations after the drain; the
    run is then repeated and must reproduce field-for-field (the loop is
    FIFO, the clock virtual, the workload seeded — any divergence is a
    runtime bug). *)

val run : seed:int -> (unit, string) result
