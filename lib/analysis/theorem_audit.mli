(** Theorem auditor: Corollary 2 (every deadlock cycle contains — and every
    victim is — a 2PL transaction), Corollary 1 (PA transactions are never
    restarted nor picked as victims), and, when the final store is given,
    Theorem 2 (conflict-serializable logs, convergent replicas) plus the
    fail-stop durability and 2PC-atomicity checks.

    Event-at-a-time: [create] a state with the sink its findings go to,
    [feed] it each event, then [finish]. *)

val not_serializable : string
(** ["thm.not-serializable"], the check name of a Theorem 2 violation. *)

type state

val create : (Finding.t -> unit) -> state

val feed : state -> int -> Ccdb_protocols.Runtime.event -> unit
(** [feed st i event] advances the audit by [event], the [i]-th event of
    the trace; its findings carry event index [i] and reach the sink at
    once. *)

val finish :
  ?store:Ccdb_storage.Store.t ->
  ?serializability:(unit -> Ccdb_serial.Incremental.edge list option) ->
  state ->
  unit
(** End-of-trace checks (2PC atomicity and, with [store], Theorem 2 +
    durability), whose findings carry no event index.  When
    [serializability] is given it supplies the
    conflict-serializability verdict — [Some cycle] when violated — in
    place of the batch scan of the store's logs (the streaming analyzer
    passes its incremental graph's verdict here). *)

val cross_check : serializable:bool -> Report.t -> Report.t
(** Compares the report's Theorem 2 verdict with [serializable], a scan
    of the same run's logs: the report as it is when they agree, with one
    more error finding, [audit.divergence], when they do not. *)
