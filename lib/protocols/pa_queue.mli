(** Precedence Agreement data queue for one physical copy (section 3.4).

    The queue keeps every pending request sorted by precedence
    (timestamp, then issuing site, then transaction id).  A request arriving
    too late is not rejected: the queue computes the back-off timestamp
    [TS'_ij = TS_i + k * INT_i], the smallest such value clearing the
    relevant high-water mark, inserts the request as {e blocked} at that
    position, and reports [TS'_ij] to the request issuer.  A blocked entry
    stalls the grant frontier (rule A in the paper) until the issuer's
    agreed timestamp [TS'_i] arrives and re-activates it.

    Grants follow the head-of-queue (HD) discipline: only the first
    ungranted entry may be granted — a read when no earlier granted write is
    still held, a write when no earlier granted entry is still held —
    so grants happen in precedence order per queue (E1).

    When the issuer agrees on [TS'_i = max_j TS'_ij] it updates every queue,
    including queues that had already granted the original request; such a
    grant is {e revoked} (safe: a granted-but-unreleased request has exposed
    no data to anyone but its own issuer, who discards it) and re-issued once
    the entry becomes grantable at its new position. *)

type response =
  | Accepted           (** queued; a grant will follow eventually *)
  | Backoff of int     (** too late; the back-off timestamp [TS'_ij] *)

type entry = {
  txn : int;
  site : int;
  op : Ccdb_model.Op.kind;
  mutable ts : int;
  mutable blocked : bool;     (** awaiting the issuer's agreed timestamp *)
  mutable granted : bool;
  mutable granted_at : float; (** simulation time of the (last) grant *)
}

type t

val create : unit -> t

val r_ts : t -> int
(** Effective R-TS(j): the largest timestamp over released reads and
    currently granted reads ([-1] when none). *)

val w_ts : t -> int
(** Effective W-TS(j), same construction over writes. *)

val request :
  t -> txn:int -> site:int -> ts:int -> op:Ccdb_model.Op.kind -> response
(** Acceptance test of step 2(c): a read needs [ts > w_ts], a write needs
    [ts > max r_ts w_ts]; otherwise the back-off timestamp is computed and
    the entry is queued blocked.
    @raise Invalid_argument on a duplicate request by the transaction. *)

val update_ts : t -> txn:int -> ts:int -> [ `Moved | `Revoked | `Absent ]
(** Step 2(d): sets the agreed timestamp, unblocks the entry, re-sorts, and
    revokes an existing grant ([`Revoked]).  [`Absent] when the transaction
    has no entry here. *)

val grant_ready : t -> now:float -> entry list
(** Marks every entry the HD discipline now allows as granted (recording
    [now]) and returns them in precedence order. *)

val release : t -> txn:int -> entry option
(** Removes the transaction's entry and advances the released high-water
    marks; [None] when absent. *)

val entries : t -> entry list
(** Pending entries in precedence order. *)
