(** Distributed deadlock detection by edge-chasing probes
    (Chandy-Misra-Haas AND-model, the mechanism behind the paper's
    citations [6] and [11]).

    Unlike the centralized detector, no site ever sees the whole wait-for
    graph.  A transaction blocked for longer than [probe_delay] starts a
    probing round: its issuer asks every queue-manager site holding one of
    its pending requests for the local transactions it waits on, and sends a
    probe to each of their home sites.  A blocked receiver forwards the
    probe the same way; a probe arriving back at its initiator proves a
    cycle and the initiator aborts itself (in the unified system only 2PL
    transactions initiate, so the victim is always a 2PL transaction —
    consistent with Corollary 2).

    Probes carry a round number and each (initiator, round) is forwarded at
    most once per transaction, so one round costs O(edges) messages.  Rounds
    repeat while the initiator stays blocked, catching cycles that form
    after the first round.

    {b Phantom suppression.}  Edges are sampled at different instants along
    a probe's path, so with incremental lock grants a probe can come home
    along a chain that never existed at any single instant.  A deadlock is
    therefore declared only after two consecutive rounds confirm it, and any
    grant the initiator receives in between ({!txn_progress}) resets the
    suspicion.  Genuine cycles confirm immediately since none of their
    members can make progress.

    The owning system supplies its own topology through callbacks; this
    module owns timers, dedup, message sending and victim notification. *)

type config = { probe_delay : float }

type callbacks = {
  is_waiting : int -> bool;
      (** is the transaction currently blocked waiting for grants? *)
  home_site : int -> int option;
      (** issuing site of a live transaction *)
  pending_sites : int -> int list;
      (** queue-manager sites holding the transaction's outstanding
          requests *)
  local_waits_on : site:int -> txn:int -> int list;
      (** at [site], the transactions [txn]'s ungranted requests wait on *)
  may_initiate : int -> bool;
      (** whether this transaction starts probe rounds (2PL only in the
          unified system) *)
  on_deadlock : int -> unit;
      (** invoked at the initiator's site when its probe came home *)
}

type t

val create : Ccdb_sim.Engine.t -> Ccdb_sim.Net.t -> config -> callbacks -> t
(** Raises [Invalid_argument] unless [probe_delay > 0.] (so NaN is
    refused). *)

val txn_blocked : t -> int -> unit
(** Arm (or re-arm) the probe timer for a transaction that just started
    waiting.  Idempotent while a timer is armed. *)

val txn_unblocked : t -> int -> unit
(** The transaction stopped waiting (granted, committed, or aborted):
    cancel its timer and invalidate its outstanding rounds. *)

val txn_progress : t -> int -> unit
(** The transaction received one of its grants but still waits for others:
    invalidate outstanding rounds and pending suspicion (phantom
    suppression). *)

val deadlocks_found : t -> int
