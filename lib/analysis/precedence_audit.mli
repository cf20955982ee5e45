(** E1/E2 enforcement checker: reconstructs each copy's precedence queue
    from the request stream and verifies the recorded grants, rejections
    and implementation points against the Precedence-Assignment Model —
    2PL requests pinned to the replayed high-water timestamp, T/O
    rejections consistent with [r_ts]/[w_ts], grants in precedence order
    (E2) and conflicting operations implemented in precedence order (E1).

    Event-at-a-time: [create] a state with the sink its findings go to,
    then [feed] it each event; there are no end-of-trace checks. *)

type state

val create : (Finding.t -> unit) -> state

val feed : state -> int -> Ccdb_protocols.Runtime.event -> unit
(** [feed st i event] advances the audit by [event], the [i]-th event of
    the trace; its findings carry event index [i] and reach the sink at
    once. *)
