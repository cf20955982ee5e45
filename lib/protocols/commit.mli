(** Atomic-commitment dispatcher.

    The durable systems (pure 2PL, pure PA, and the unified engine) route
    a transaction's post-execution implementation through this module; the
    runtime's {!Runtime.commit_protocol} selects which engine actually
    runs the round:

    - {!Runtime.commit_protocol.Two_pc} — presumed-abort two-phase commit
      ({!Two_pc}), the default.  Blocks (then presumes abort) if the
      coordinator fail-stops inside the decision window.
    - {!Runtime.commit_protocol.Paxos} — Paxos Commit ({!Consensus}): each
      participant vote is a Paxos instance over [2f+1] replicated
      acceptors, so the round decides as long as [f+1] acceptors are up —
      a coordinator crash no longer blocks it.

    Both engines share the client/round retry discipline, the participant
    [Prewrite]/[Vote]/[Decision]/[Applied] WAL records, the exactly-once
    application contract, and the invariant that an aborted round keeps
    its locks (PA stays restart-free).  [config] and [hooks] are
    {!Two_pc}'s records, re-exported. *)

type config = Two_pc.config = {
  inquiry_timeout : float;
      (** how long a prepared participant waits before (re-)asking for the
          outcome — the 2PC coordinator, or the Paxos acceptor set *)
  client_retry : float;
      (** how long the client waits for a decision before re-driving the
          protocol (2PC: a fresh round; Paxos: the same round, whose
          number only advances after a learned abort) *)
}

val default_config : config
(** inquiry 250, client retry 1200 simulated time units. *)

type hooks = Two_pc.hooks = {
  apply : txn:int -> site:int -> Ccdb_storage.Wal.action list -> unit;
      (** implement the committed actions at one participant site; called
          exactly once per (txn, site) *)
  commit_point : txn:int -> unit;
      (** the transaction's global outcome is commit; called exactly once
          per txn *)
}

type t = Two_pc of Two_pc.t | Paxos of Consensus.t
(** The engine selected at {!create} time. *)

val create : ?config:config -> Runtime.t -> hooks -> t
(** Builds the engine named by [Runtime.commit_protocol rt] and registers
    it with the runtime's wipe/replay hooks.
    @raise Invalid_argument if the runtime is not durable, a timeout is
    not positive, or (Paxos) the network has fewer than [2f+1] sites. *)

val participants :
  site:('a -> int) ->
  action:('a -> Ccdb_storage.Wal.action) ->
  'a list ->
  (int * Ccdb_storage.Wal.action list) list
(** Groups a transaction's copies into the [participants] of {!commit}:
    one entry per site, sites ascending, each site's actions in list
    order.  The caller builds each copy's action. *)

val commit :
  t ->
  txn:int ->
  home:int ->
  participants:(int * Ccdb_storage.Wal.action list) list ->
  unit
(** Start the commit protocol for [txn] across [participants] (site,
    deferred actions) with the client terminal at [home].
    @raise Invalid_argument on a duplicate [txn]. *)

val in_flight : t -> int
(** Number of transactions handed to {!commit} whose outcome is not yet
    commit — the runtime's quiescence check for the durable path. *)
