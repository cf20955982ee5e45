(** Pure Precedence Agreement baseline (section 3.4).

    Phase 1: the issuer sends every request with the transaction's timestamp
    TS and waits until each copy has either granted or reported a back-off
    timestamp [TS + k * INT] ({!Ccdb_model.Timestamp.backoff}).  If
    everything was granted the transaction executes.  Otherwise, phase 2:
    the issuer agrees on [TS' = max_j TS'_ij], updates every queue (grants
    already received are revoked and re-issued), waits for all grants,
    executes, and releases.  PA transactions never restart and never
    deadlock (Corollary 1). *)

type t

val create : Runtime.t -> t
(** Every transaction backs off by the one INT,
    {!Ccdb_model.Timestamp.backoff_interval}. *)

val submit : t -> ?payload:Lifecycle.payload_fn -> Ccdb_model.Txn.t -> unit
(** @raise Invalid_argument on a duplicate live transaction id. *)
