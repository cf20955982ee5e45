(** Deadlock detection for systems that admit 2PL waiting cycles.

    Two detectors are provided, matching the mechanisms the paper cites:

    - {b Centralized}: a detector process at site 0 periodically collects
      the wait-for graph.  Each scan costs one report message per
      site plus one abort message per victim, and the abort takes effect only
      after the simulated network delay — so detection time and cost (the
      paper's parameter (6)) are both modelled.
    - {b Edge-chasing} (Chandy-Misra-Haas style, {!Edge_chasing}): a
      transaction blocked longer than a threshold sends a probe along
      wait-for edges; a probe returning to its initiator proves a cycle.
      No site sees the whole graph. *)

(** How a system detects 2PL deadlocks. *)
type detection =
  | Centralized of { interval : float }
      (** periodic wait-for-graph collection at site 0 *)
  | Edge_chasing of { probe_delay : float }
      (** Chandy-Misra-Haas probes ({!Edge_chasing}) *)

val default_detection : detection
(** [Centralized { interval = 100. }]. *)

type victim_choice = int list -> int option
(** Picks the victim from a witness cycle; [None] aborts nothing (used when
    a stale cycle no longer holds). *)

val youngest : int list -> int option
(** Largest transaction id in the cycle (ids increase with arrival, so this
    is the youngest transaction). *)

type t

val create_centralized :
  engine:Ccdb_sim.Engine.t ->
  net:Ccdb_sim.Net.t ->
  interval:float ->
  edges:((int -> int -> unit) -> unit) ->
  choose_victim:victim_choice ->
  victim_site:(int -> int option) ->
  abort:(int -> unit) ->
  t
(** [edges add] snapshots the current wait-for graph, calling [add waiter
    holder] for each edge; repeats are allowed.  Each scan streams it into
    one graph builder the detector reuses.  [victim_site] maps a
    transaction to its issuing site ([None] if it no longer exists);
    [abort v] is invoked at the victim's site after the abort message
    arrives.  The snapshot may be stale by then — the owning system must
    ignore aborts for transactions that are no longer waiting.  Raises
    [Invalid_argument] unless [interval > 0.] (so NaN is refused). *)

val start : t -> unit
(** Schedules the periodic scans. *)

val stop : t -> unit
(** No further scans fire after the current instant. *)

val scans : t -> int
val cycles_found : t -> int
