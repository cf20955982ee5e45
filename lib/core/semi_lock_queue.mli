(** The unified data queue: one queue manager per physical copy, accepting
    2PL, T/O, and PA requests side by side (sections 4.1-4.2 of Wang & Li
    1988).

    {2 Precedence assignment (section 4.1)}

    T/O and PA requests carry their transaction's timestamp.  A 2PL request
    is assigned the biggest timestamp that has ever appeared in this queue,
    which pins it to the tail; ties resolve by the unified precedence order
    ({!Ccdb_model.Precedence}).  The high-water marks [r_ts]/[w_ts] used for
    T/O rejection and PA back-off run over granted and released requests of
    {e every} protocol, because a conflicting grant to any protocol
    constrains where a timestamped request may still be inserted.

    {2 Semi-lock enforcement (section 4.2)}

    Grants follow the head-of-queue (HD) discipline in precedence order.
    The lock mode granted depends on the requesting protocol:

    - 2PL/PA read: RL once no WL/SWL is held — always a {e normal} grant;
    - 2PL/PA write: WL once no lock at all is held — always normal;
    - T/O read: SRL once no plain WL is held — {e pre-scheduled} if a
      conflicting SWL is still held;
    - T/O write: WL once no RL and no WL is held — pre-scheduled if a
      conflicting SRL/SWL is still held.

    A pre-scheduled lock becomes normal when every conflicting lock granted
    earlier has been released; {!release} reports such promotions.

    An executed T/O transaction that received pre-scheduled grants
    {!transform}s its locks into semi-locks (WL becomes SWL, its write is
    implemented at that instant) and releases only after all its grants have
    become normal.

    With [semi_locks:false] the queue implements the paper's simpler
    alternative — full locking for every protocol: T/O reads take RL and
    T/O writes behave like PA writes, so no pre-scheduled grants ever occur.
    This is the ablation baseline of experiment E8. *)

type response =
  | Accepted
  | Rejected         (** T/O request out of precedence order *)
  | Backoff of int   (** PA request: the back-off timestamp TS'_ij *)

type entry = {
  txn : int;
  site : int;
  protocol : Ccdb_model.Protocol.t;
  op : Ccdb_model.Op.kind;
  epoch : int;  (** issuer's attempt number, echoed in grants so the issuer
                    can discard messages from a superseded attempt *)
  mutable prec : Ccdb_model.Precedence.t;
  mutable blocked : bool;                       (** PA awaiting TS' *)
  mutable lock : Ccdb_model.Lock.mode option;   (** held lock, if granted *)
  mutable schedule : Ccdb_model.Lock.schedule;
  mutable grant_seq : int;   (** grant order at this queue; -1 if ungranted *)
  mutable granted_at : float;
  mutable implemented : bool;
      (** a T/O write already applied at transform time (managed by the
          owning system, not the queue) *)
}

type t

val create : ?semi_locks:bool -> unit -> t
(** [semi_locks] defaults to [true]. *)

val r_ts : t -> int
val w_ts : t -> int
(** Effective high-water marks: max precedence timestamp over released and
    currently granted reads (resp. writes), [-1] when none. *)

val request :
  t ->
  txn:int ->
  site:int ->
  protocol:Ccdb_model.Protocol.t ->
  ts:int option ->
  epoch:int ->
  op:Ccdb_model.Op.kind ->
  response
(** [ts] must be [None] exactly for 2PL requests (the queue assigns their
    precedence) and [Some _] for T/O and PA.  A late PA request is queued
    blocked at {!Ccdb_model.Timestamp.backoff}.
    @raise Invalid_argument on a duplicate entry for the transaction or on a
    [ts]/protocol mismatch. *)

val update_ts : t -> txn:int -> ts:int -> [ `Moved | `Revoked | `Absent ]
(** PA phase 2 (same contract as {!Ccdb_protocols.Pa_queue.update_ts}). *)

val grant_ready : t -> now:float -> unit
(** Grants everything the HD discipline allows.  The grants are the
    {!reports}, in precedence order; each grant's schedule is its entry's
    [schedule]. *)

val reports : t -> int
(** How many entries the last {!grant_ready}, {!release} or {!abort} on
    this queue reported: its grants, or its promotions. *)

val report : t -> int -> entry
(** [report t i] is the [i]-th of them, [0 <= i < reports t], in
    precedence order.  The queue reuses one buffer, so read the reports
    before the next of those calls.
    @raise Invalid_argument on an out-of-range [i]. *)

val transform : t -> txn:int -> entry
(** Turns the T/O transaction's held lock into a semi-lock and returns the
    entry (the caller implements the write at this instant); an ungranted
    entry is returned unchanged.  The lock's normal/pre-scheduled status
    is unchanged.
    @raise Not_found when the transaction has no entry here. *)

val release : t -> txn:int -> entry
(** Removes the transaction's entry, advances the released high-water
    marks, and returns the removed entry.  The {!reports} are the held
    pre-scheduled locks that just became normal.
    @raise Not_found when the transaction has no entry here. *)

val abort : t -> txn:int -> entry
(** Like {!release} but without advancing the high-water marks (the
    operations were never implemented); used for T/O restarts and 2PL
    deadlock victims. *)

val wipe_volatile : t -> entry list
(** Fail-stop crash: drops and returns every ungranted non-PA entry —
    volatile state whose admission was never promised to the issuer.
    Granted entries survive (the write-ahead log vouches for them), and so
    does every PA entry regardless of grant status: a PA admission or
    back-off was acknowledged during negotiation, and dropping it would
    stall the negotiation into a restart, violating Corollary 1's
    restart-freedom.  High-water marks and held-lock counters are
    untouched. *)

val iter_waits_for : t -> (int -> int -> unit) -> unit
(** [iter_waits_for t f] calls [f waiter holder] for each wait-for edge of
    the deadlock detector.  Each ungranted entry waits on the transactions
    of earlier-precedence entries that are present and either conflict
    with it or are themselves ungranted (the HD frontier); additionally,
    the owner of a held {e pre-scheduled} lock waits on the holders of the
    conflicting earlier grants — a draining T/O transaction cannot release
    until those clear, and a deadlock cycle can run through it.  Each
    [(waiter, holder)] pair comes once, in no particular order. *)

val entries : t -> entry list
(** Pending entries in precedence order (tests / diagnostics). *)
