(** Semi-lock race detector: replays grant/transform/promote/release events
    against the RL/WL/SRL/SWL compatibility matrix of section 4.2 and flags
    co-held incompatible pairs, pre-scheduled grants that are never
    promoted, and strict-2PL violations (grant after commit, release before
    commit).

    Event-at-a-time: [create] a state with the sink its findings go to,
    [feed] it each event as it happens (each finding reaches the sink as
    the event raises it), then [finish] for the end-of-trace checks
    (leaked locks, never-promoted grants).  {!Stream} numbers the events,
    owns the sink and fans each event out to every audit. *)

type state

val create : (Finding.t -> unit) -> state

val feed : state -> int -> Ccdb_protocols.Runtime.event -> unit
(** [feed st i event] advances the audit by [event], the [i]-th event of
    the trace; its findings carry event index [i]. *)

val finish : state -> int -> unit
(** [finish st n]: the end-of-trace checks, whose findings carry event
    index [n], the number of events fed. *)
