(** Pure static Two-Phase Locking baseline.

    Every transaction predeclares its read and write sets; the request
    issuer sends one lock request per physical copy (read-one/write-all),
    waits for all grants, computes, then sends releases carrying the write
    values.  Requests queue FCFS at each copy ({!Lock_table}); deadlocks are
    broken by a centralized periodic detector ({!Deadlock}) aborting the
    youngest transaction in a witness cycle, which restarts after
    [restart_delay]. *)

(** Deadlock prevention policies, keyed on transaction age (the id; smaller
    means older).  With prevention active no wait-for cycle can form, so the
    detector stays off. *)
type prevention =
  | No_prevention  (** rely on {!Deadlock} detection *)
  | Wait_die
      (** a requester younger than a transaction it would wait behind
          aborts itself and retries with its original age *)
  | Wound_wait
      (** a requester aborts ("wounds") every younger waiting transaction
          in its way; transactions only ever wait behind older ones *)

type config = {
  restart_delay : float;           (** delay before a deadlock victim resubmits *)
  detection : Deadlock.detection;  (** centralized WFG scan or edge-chasing *)
  prevention : prevention;
}

val default_config : config
(** restart_delay 50., centralized detection every 100. at site 0,
    no prevention. *)

type t

val create : ?config:config -> Runtime.t -> t

val submit : t -> ?payload:Lifecycle.payload_fn -> Ccdb_model.Txn.t -> unit
(** Submits at the current simulation time.  The transaction's protocol
    field is ignored (everything runs 2PL here).
    @raise Invalid_argument on a duplicate live transaction id. *)

val active : t -> int
(** Transactions submitted but not yet committed. *)

val detector_cycles : t -> int
(** Wait-for cycles the detector resolved so far (either mechanism). *)
