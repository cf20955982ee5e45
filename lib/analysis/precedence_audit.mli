(** E1/E2 enforcement checker: reconstructs each copy's precedence queue
    from the request stream and verifies the recorded grants, rejections
    and implementation points against the Precedence-Assignment Model —
    2PL requests pinned to the replayed high-water timestamp, T/O
    rejections consistent with [r_ts]/[w_ts], grants in precedence order
    (E2) and conflicting operations implemented in precedence order (E1).

    Event-at-a-time: [create] / [feed]; there are no end-of-trace checks. *)

type state

val create : unit -> state

val feed : state -> Ccdb_protocols.Runtime.event -> Finding.t list
(** Advances the audit by one event; returns the findings it triggered. *)
