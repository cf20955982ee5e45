(** FCFS queued lock table for one physical copy — the data queue of pure
    static 2PL (section 3.3).

    Requests queue in arrival order; a request is granted when every earlier
    conflicting request has been released (the paper's locking protocol
    rule 1).  Released requests leave the queue, so "unreleased" and
    "present" coincide. *)

type entry = {
  txn : int;
  attempt : int;            (** restart attempt the request belongs to *)
  op : Ccdb_model.Op.kind;
  arrival : int;            (** arrival rank at this queue *)
  mutable granted : bool;
}

type t

val create : unit -> t

val request : t -> txn:int -> attempt:int -> op:Ccdb_model.Op.kind -> entry
(** Appends a request; does not grant. *)

val grant_ready : t -> entry list
(** Marks grantable requests as granted and returns the newly granted
    entries, in queue order. *)

val release : t -> txn:int -> attempt:int -> entry option
(** Removes the transaction's entry (granted or not); [None] if absent or
    the attempt does not match (a stale message). *)

val wipe_waiting : t -> entry list
(** Fail-stop crash: drops every ungranted request (volatile — never
    promised to its issuer) and returns them, queue order.  Granted entries
    survive; the write-ahead log vouches for them. *)

val entries : t -> entry list
(** Current queue, FCFS order. *)

val iter_waits_for : t -> (int -> int -> unit) -> unit
(** [iter_waits_for t f] calls [f waiter holder] for each wait-for edge
    this queue contributes: from every ungranted request's transaction to
    each earlier conflicting request's, once per such pair of requests,
    in no particular order. *)

val holders : t -> (int * Ccdb_model.Op.kind) list
(** Transactions currently granted, in grant order. *)
