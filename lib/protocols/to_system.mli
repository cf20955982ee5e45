(** Pure Basic Timestamp Ordering baseline (Bernstein & Goodman [3]).

    The classic lifecycle: the transaction sends its read requests, awaits
    their replies (a read waits behind smaller-timestamp buffered prewrites),
    computes, then sends one prewrite per written copy.  A prewrite is
    rejected when it arrives out of timestamp order; once every prewrite is
    acknowledged the transaction commits and the buffered writes apply in
    timestamp order.  Any rejection — read or prewrite — restarts the whole
    transaction with a fresh, larger timestamp after [restart_delay], so a
    late rejection wastes the reads and the computation already performed:
    this is why Basic T/O degrades as transaction size grows ([10], and the
    paper's section 5 discussion).

    Unlike 2PL/PA (and unlike the unified system, which gives T/O
    transactions predeclared write locks), a committed write here never
    waits for a lock-release round — there are no locks at all.

    Every write implements the transaction id; read-modify-write payloads
    run on the unified system. *)

type config = {
  restart_delay : float;
  thomas_write_rule : bool;
      (** accept-and-drop obsolete writes instead of restarting
          ({!To_queue.verdict}); an extension beyond the paper's Basic T/O,
          measured by the X2 ablation *)
}

type t

val create : ?config:config -> Runtime.t -> t
(** [config] defaults to restart_delay 50., Thomas Write Rule off. *)

val submit : t -> Ccdb_model.Txn.t -> unit
(** @raise Invalid_argument on a duplicate live transaction id. *)
