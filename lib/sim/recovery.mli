(** Crash-recovery bookkeeping for fail-stop sites.

    This module owns the {e timing} of recovery, not its content: what gets
    wiped at a crash and rebuilt at a recovery is injected as callbacks (the
    protocol runtime wires them — [lib/sim] cannot depend on the protocol
    layer).  At each crash instant it invokes [on_wipe]; at each recovery
    instant it invokes [on_replay] with the number of stable-log records the
    site must scan.

    Replay is modeled as {e atomic at the recovery instant}: the site's
    state is rebuilt before any post-recovery message is processed (event
    callbacks are atomic in {!Engine}, and the network only resumes delivery
    after the recovery event).  The {e replay window} [\[t, t + cost·n)] is
    an accounting device on top of that atomic rebuild — it feeds the
    recovery-time metrics of experiment E12 and lets tests aim a second
    crash "inside" a replay ([crash=S\@T+D] with [T] in the window), which
    simply re-wipes and re-replays: replay is idempotent, so the interrupted
    window costs only the time already spent. *)

type stats = {
  replays : int;          (** recovery replays performed *)
  interrupted : int;      (** crashes that landed inside a replay window *)
  records_replayed : int; (** total stable-log records scanned *)
  replay_time : float;    (** total simulated time charged to replays *)
}

type t

val create :
  net:Net.t ->
  engine:Engine.t ->
  ?replay_cost:float ->
  records:(int -> int) ->
  on_wipe:(int -> unit) ->
  on_replay:(int -> records:int -> unit) ->
  unit ->
  t
(** Registers crash/recovery listeners on [net].  [records site] must return
    the current size of the site's stable log; [replay_cost] is the
    simulated time charged per record (default [0.05]).  Listener order
    matters: create this {e after} any listener that must observe the
    pre-wipe state and {e before} protocol crash handlers that restart
    transactions, so they see the post-wipe queues.
    @raise Invalid_argument if [replay_cost < 0.]. *)

val stats : t -> stats
