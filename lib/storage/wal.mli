(** Per-site write-ahead log: the simulation's "stable storage".

    Under a fault plan with [wipe=true] a crash is fail-stop: every queue
    manager at the site loses its volatile state (lock tables, T/O queues,
    pending negotiations), and only what was forced to this log survives.
    Sites follow the classic log-before-ack discipline — any admission,
    grant, prewrite or 2PC vote whose acknowledgement left the site was
    appended here first — so recovery can rebuild exactly the promises the
    rest of the system may still rely on (DESIGN.md section 11).

    Records are plain values, not bytes: the log models {e what} must be
    durable, not an encoding.  Appends and replays are counted so the
    harness can report durability overhead (see [bench/] and experiment
    E12). *)

type action = {
  item : int;
  op : Ccdb_model.Op.kind;
  value : int option;  (** the committed value — [Some] for writes *)
  attempt : int;       (** issuer attempt number (2PL lock-table key; 0 elsewhere) *)
  granted_at : float;  (** grant instant of the lock being released *)
}
(** One operation a 2PC participant must implement when the decision is
    commit.  Carried in {!record.Prewrite} records so a recovering
    participant can re-apply an in-doubt transaction without any volatile
    state. *)

type record =
  | Admit of { txn : int; item : int; op : Ccdb_model.Op.kind; ts : int }
      (** a timestamped request was admitted to a queue (T/O, PA, MVTO
          prewrites); the admission is a promise the issuer may have
          observed, so it is forced before the acknowledgement *)
  | Grant of { txn : int; item : int; op : Ccdb_model.Op.kind; ts : int option }
      (** lock-point event: a lock (or performed T/O operation) was granted *)
  | Revoke of { txn : int; item : int }
      (** PA phase 2 moved a granted entry; the grant is no longer live *)
  | Release of { txn : int; item : int; op : Ccdb_model.Op.kind; aborted : bool }
      (** the entry left the queue (implemented or aborted) *)
  | Prewrite of { txn : int; round : int; action : action }
      (** commit participant: one action of a prepared transaction, forced
          before the vote *)
  | Vote of { txn : int; round : int; coordinator : int }
      (** commit participant voted yes for this round (forced before the
          vote message; no participant votes no).  [coordinator] is the
          round's home site. *)
  | Decision of { txn : int; round : int; commit : bool }
      (** commit participant learned the outcome of the round *)
  | Applied of { txn : int; round : int }
      (** the participant implemented the committed actions *)
  | Acceptor_promise of { txn : int; round : int; ballot : int }
      (** Paxos Commit acceptor (at F = 0 the home site) promised to ignore ballots below [ballot]
          for every instance of this commit round — forced before the
          phase-1b reply leaves the site, so a fail-stop acceptor recovers
          the promise via {!replay} and can never regress *)
  | Acceptor_accept of {
      txn : int;
      round : int;
      instance : int;  (** the participant site whose vote this instance decides *)
      ballot : int;
      prepared : bool; (** the accepted value: prepared (yes) or aborted *)
      home : int;      (** the round's home terminal site *)
      psites : int list; (** the participant set, in instance order *)
    }
      (** Paxos Commit acceptor accepted a value for one instance — forced
          before the phase-2b reply, so a recovering acceptor reports it to
          later leaders (the Paxos safety invariant survives the crash).
          [home]/[psites] make the record self-contained: a replayed
          acceptor can finish the round by takeover even when nobody else
          remembers it (the client may already have learned the outcome
          and gone quiet) *)

type entry = { at : float; record : record }

type t

val create : sites:int -> t
(** One empty log per site.  @raise Invalid_argument if [sites <= 0]. *)

val sites : t -> int

val append : t -> site:int -> at:float -> record -> unit
(** Forces one record to the site's log.  @raise Invalid_argument on an
    out-of-range site. *)

val appends : t -> int
(** Total records forced across all sites since creation. *)

val site_appends : t -> int -> int
(** Records forced at one site. *)

val records : t -> site:int -> entry list
(** The site's log, oldest first. *)

type replay = {
  live_grants : int;
      (** grants not yet released or revoked — the semi-locks and locks the
          recovering site still holds on behalf of remote issuers *)
  in_doubt : (int * int * action list) list;
      (** [(txn, round, actions)]: voted rounds, oldest vote first, with no
          decision for that round and no {!record.Applied} record for the
          transaction — must re-inquire; [actions] in prewrite order *)
  decided : (int * int * bool) list;
      (** [(txn, round, commit)] decision records, oldest first *)
  promised : ((int * int) * int) list;
      (** [((txn, round), ballot)]: the highest ballot this site promised
          for each commit round it acted as a Paxos acceptor for, in first-
          promise order — recovery restores these before rejoining *)
  accepted : ((int * int * int) * (int * bool)) list;
      (** [((txn, round, instance), (ballot, prepared))]: the highest-ballot
          value this acceptor accepted per instance, in first-accept order —
          reported to later leaders during their phase 1 *)
  acc_meta : ((int * int) * (int * int list)) list;
      (** [((txn, round), (home, psites))] from each round's first accept
          record: the home terminal and instance-ordered participant set,
          restoring a replayed acceptor's ability to lead a takeover *)
}

val replay : t -> site:int -> replay
(** Scans the site's log and summarizes what recovery must restore: the
    grants still live, the commit rounds to re-inquire or re-apply and the
    acceptor state.  The number of records scanned is {!site_appends}.
    Pure: replaying twice (a crash inside a replay window) is
    idempotent. *)

val pp_record : Format.formatter -> record -> unit
