(** Consensus-commit auditor (Paxos Commit, DESIGN.md §15):
    [consensus.split-decision] (two sites log different outcomes for one
    round), [consensus.ballot-regression] (an acceptor accepts below a
    ballot it promised), and [consensus.blocking-window] (a participant is
    still in-doubt at a live site when the trace quiesces).  Every durable
    run commits through Paxos Commit (2PC is its [f = 0] case), so all
    three apply to every transaction.

    Event-at-a-time: [create] / [feed] / [finish]. *)

type state

val create : unit -> state

val feed : state -> Ccdb_protocols.Runtime.event -> Finding.t list
(** Advances the audit by one event; returns the findings it triggered. *)

val finish : state -> Finding.t list
(** End-of-trace check: the blocking-window scan over participants still
    prepared at sites not inside a crash window. *)
