(** The unified concurrency-control system (section 4 of Wang & Li 1988).

    One system runs transactions of all three protocols concurrently over
    the {!Semi_lock_queue}s:

    - {b 2PL} transactions queue FCFS (via the queue-local precedence),
      lock, compute, release; deadlocks are broken by the centralized
      detector, which — per Corollary 2 — only ever needs to abort a 2PL
      transaction.
    - {b T/O} transactions carry a global timestamp; a rejection restarts
      them with a fresh timestamp.  After computing, a transaction holding
      only normal grants releases directly; one holding pre-scheduled grants
      transforms its locks into semi-locks (its writes are implemented at
      that instant and it counts as executed), then releases once every
      grant has become normal.
    - {b PA} transactions run the two-phase agreement of section 3.4 on top
      of the same queues: back-offs, the agreed TS', grant revocation.

    With [semi_locks = false] the system runs the paper's simpler
    unification (full locking for everyone, section 4.2's first solution);
    T/O transactions then hold read/write locks to release like 2PL, which
    sacrifices T/O concurrency — the E8 ablation measures exactly this. *)

type config = {
  semi_locks : bool;
  restart_delay : float;  (** delay before a restarted transaction retries *)
  detection : Ccdb_protocols.Deadlock.detection;
      (** centralized WFG scan or Chandy-Misra-Haas edge-chasing; only 2PL
          transactions ever initiate probes or get aborted (Corollary 2) *)
}

val default_config : config
(** semi_locks true, restart_delay 50., centralized detection every 100.
    at site 0.  PA transactions carry
    {!Ccdb_model.Timestamp.Tuple.backoff_interval}. *)

type t

val create :
  ?config:config ->
  ?reselect:(Ccdb_model.Txn.t -> Ccdb_model.Protocol.t) ->
  Ccdb_protocols.Runtime.t ->
  t
(** [reselect] implements the paper's future-work item (4), "allowing
    transactions to change their concurrency control methods": it is
    consulted on every restart (deadlock victims and T/O rejections) and the
    transaction's remaining attempts run under the protocol it returns.
    Safe because a restarted transaction holds nothing when it re-enters:
    every queue entry of the previous attempt has been withdrawn. *)

val submit :
  t -> ?payload:Ccdb_protocols.Lifecycle.payload_fn -> Ccdb_model.Txn.t -> unit
(** Runs the transaction under the protocol in its [protocol] field.
    @raise Invalid_argument on a duplicate live transaction id. *)

val active : t -> int
(** Transactions submitted but not yet executed. *)

val draining : t -> int
(** Executed T/O transactions still holding semi-locks. *)

val detector_cycles : t -> int

val unimplemented_requests :
  t -> (Ccdb_model.Precedence.t * Ccdb_model.Protocol.t) list
(** Every request not yet {e implemented} in the paper's section 4.3 sense,
    as (precedence, protocol) sorted by precedence: ungranted entries, plus
    granted 2PL/PA entries awaiting release, plus granted T/O writes not yet
    transformed.  Granted T/O reads are implemented at grant and excluded.
    Theorem 3: when the system is blocked, the head of this list belongs to
    a 2PL transaction — tested directly against engineered deadlocks. *)
