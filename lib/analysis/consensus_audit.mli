(** Consensus-commit auditor (Paxos Commit, DESIGN.md §15):
    [consensus.split-decision] (two sites log different outcomes for one
    round), [consensus.ballot-regression] (an acceptor accepts below a
    ballot it promised), and [consensus.blocking-window] (a participant is
    still in-doubt at a live site when the trace quiesces).  Every durable
    run commits through Paxos Commit (2PC is its [f = 0] case), so all
    three apply to every transaction.

    Event-at-a-time: [create] a state with the sink its findings go to,
    [feed] it each event, then [finish]. *)

type state

val create : (Finding.t -> unit) -> state

val feed : state -> int -> Ccdb_protocols.Runtime.event -> unit
(** [feed st i event] advances the audit by [event], the [i]-th event of
    the trace; its findings carry event index [i] and reach the sink at
    once. *)

val finish : state -> unit
(** End-of-trace check: the blocking-window scan over participants still
    prepared at sites not inside a crash window. *)
