(** Pure Precedence Agreement baseline (section 3.4).

    Phase 1: the issuer sends every request with the transaction's timestamp
    tuple (TS, INT) and waits until each copy has either granted or reported
    a back-off timestamp.  If everything was granted the transaction
    executes.  Otherwise, phase 2: the issuer agrees on
    [TS' = max_j TS'_ij], updates every queue (grants already received are
    revoked and re-issued), waits for all grants, executes, and releases.
    PA transactions never restart and never deadlock (Corollary 1). *)

type config = {
  backoff_interval : int;
      (** INT of every transaction's timestamp tuple (paper leaves the
          choice free; a constant matching the timestamp granularity works
          well) *)
}

val default_config : config
(** backoff_interval 8. *)

type t

val create : ?config:config -> Runtime.t -> t

val submit : t -> ?payload:Lifecycle.payload_fn -> Ccdb_model.Txn.t -> unit
(** @raise Invalid_argument on a duplicate live transaction id. *)

val active : t -> int
