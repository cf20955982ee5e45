(** Basic Timestamp Ordering scheduler for one physical copy (section 3.3).

    Requests arriving out of timestamp order are rejected (E1 enforced by
    restarts); accepted requests are ordered by timestamp.  Write requests
    are buffered as prewrites until the transaction commits, and a request
    is {e performed} only when every smaller-timestamp conflicting request
    has been performed:

    - a read is performed (logged, [r_ts] advanced) once no smaller-
      timestamp write is still pending — a granted read never blocks later
      writes;
    - a write is performed (applied, [w_ts] advanced) once every
      smaller-timestamp request, read or write, has been performed {e and}
      the issuing transaction has committed it.

    The caller owns timing and storage: this module returns the requests
    that just became performable and the caller implements them. *)

type verdict =
  | Accepted
  | Rejected  (** arrived out of timestamp order: the transaction restarts *)
  | Ignored
      (** Thomas Write Rule: the write is older than the latest applied
          write but newer than every read — it would be overwritten without
          ever being seen, so it is silently dropped instead of restarting
          the transaction.  Only produced with [thomas_write_rule:true]. *)

type performed = { txn : int; ts : int; op : Ccdb_model.Op.kind }

type t

val create : ?thomas_write_rule:bool -> unit -> t
(** [thomas_write_rule] defaults to [false] (pure Basic T/O). *)

val r_ts : t -> int
(** Largest performed read timestamp ([-1] initially). *)

val w_ts : t -> int
(** Largest performed write timestamp ([-1] initially). *)

val request : t -> txn:int -> ts:int -> op:Ccdb_model.Op.kind -> verdict
(** Applies the Basic T/O acceptance test: a read with [ts <= w_ts], or a
    write with [ts <= max r_ts w_ts], is rejected — except that with the
    Thomas Write Rule a write with [r_ts < ts <= w_ts] is [Ignored] (a dead
    write: it leaves no trace, not even in the implementation log, which
    preserves the conflict-serializability of the effective execution).
    @raise Invalid_argument if the transaction already has a request of the
    same kind pending here. *)

val commit_write : t -> txn:int -> unit
(** The transaction committed: its buffered prewrite may perform.  A write
    carries no value of its own: the caller writes the transaction id.
    No-op if the prewrite was already withdrawn by {!abort}. *)

val abort : t -> txn:int -> unit
(** Withdraws the transaction's pending requests (used when the transaction
    was rejected at some other copy and restarts). *)

val wipe_reads : t -> int list
(** Fail-stop crash: drops every pending read (volatile — nothing was
    promised to the issuer until the read's reply leaves) and returns the
    owning transaction ids in timestamp order.  Accepted write prewrites
    and the [r_ts]/[w_ts] floors survive: the admission of a prewrite was
    acknowledged, i.e. force-logged, and dropping it would make the later
    [commit_write] a silent no-op that hangs the transaction. *)

val perform_ready : t -> performed list
(** Removes and returns every request that is now performable, in timestamp
    order, updating [r_ts]/[w_ts].  The caller must implement them (log the
    reads, apply the writes) immediately. *)

val pending : t -> int
(** Number of queued (not yet performed) requests. *)
