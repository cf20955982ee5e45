(** Conservative Timestamp Ordering baseline.

    The restart-free member of the timestamp family — the subject of the
    authors' own companion analysis (reference [25] of the paper,
    "Queueing analysis of the conservative timestamp-ordering concurrency
    control algorithm").

    An operation with timestamp [t] executes at a copy only once the copy is
    certain no operation with a smaller timestamp can still arrive: every
    site has {e advertised} (through its operations being sent on FIFO
    channels and through periodic tick messages) that it will never again
    send an operation with timestamp below [t].  Operations then execute in
    strict global timestamp order per copy, so the execution is trivially
    conflict serializable and there are no rejections, restarts or
    deadlocks — the price is waiting for the slowest site's advertisement,
    plus the tick traffic (the classic conservative-T/O communication
    cost).

    A site's advertisement is [min(in-flight timestamps) - 1], or the
    timestamp source's current value when it has nothing in flight;
    a transaction leaves the in-flight set once its committed writes have
    been sent (its timestamp can no longer appear on any channel).  Every
    site broadcasts its advertisement as a null message every 25 time
    units while transactions are live, so idle sites do not stall the
    others.

    Every write implements the transaction id; read-modify-write payloads
    run on the unified system. *)

type t

val create : Runtime.t -> t

val submit : t -> Ccdb_model.Txn.t -> unit
(** @raise Invalid_argument on a duplicate live transaction id. *)

val ticks_sent : t -> int
(** Null messages broadcast so far (the protocol's communication cost). *)
