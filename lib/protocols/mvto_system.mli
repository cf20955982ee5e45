(** Multiversion Timestamp Ordering baseline ({!Mvto_queue} per copy).

    Same lifecycle as the Basic T/O baseline — reads, compute, prewrites,
    commit — but reads are served from the version chain and are never
    rejected, so only write-write/read interval conflicts restart a
    transaction.  This is the multiversion member of the comparison in
    Lin & Nolte [10] that the paper's section 5 cites.

    Because a multiversion execution is {e not} conflict-serializable over
    single-version logs (an old version can be read after a newer write),
    MVTO operations are not entered in the store's implementation log;
    correctness is checked by {!verify}, which asserts the defining MVTO
    invariant at quiescence: every read observed the committed version with
    the largest write timestamp below its own, and each copy's final value
    is its newest committed version. *)

type config = { restart_delay : float }

type t

val create : ?config:config -> Runtime.t -> t
(** [config] defaults to restart_delay 50. *)

val submit : t -> Ccdb_model.Txn.t -> unit
(** Write values are the transaction id (payloads are not supported: an
    MVTO read of the write set would need its own read timestamps).
    @raise Invalid_argument on a duplicate live transaction id. *)

val verify : t -> bool
(** The MVTO invariant over the whole run (see above); also checks that the
    physical store holds each copy's newest committed version. *)
