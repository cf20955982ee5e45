(** Semi-lock race detector: replays grant/transform/promote/release events
    against the RL/WL/SRL/SWL compatibility matrix of section 4.2 and flags
    co-held incompatible pairs, pre-scheduled grants that are never
    promoted, and strict-2PL violations (grant after commit, release before
    commit).

    Event-at-a-time: [create] a state, [feed] it each event as it happens
    (the returned findings are the ones that event triggered), then [finish]
    for the end-of-trace checks (leaked locks, never-promoted grants).
    {!Stream} fans each event out to every audit. *)

type state

val create : unit -> state

val feed : state -> Ccdb_protocols.Runtime.event -> Finding.t list
(** Advances the audit by one event; returns the findings it triggered. *)

val finish : state -> Finding.t list
(** End-of-trace checks; event index of these findings is the number of
    events fed. *)
