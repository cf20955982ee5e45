(** Online estimation of every parameter the STL selector needs
    (section 5.2 lists them): per-copy read/write throughputs, per-protocol
    lock times U and U', and the failure probabilities P_A, P_r, P_w',
    P_B, P'_B.

    An estimator subscribes to a {!Ccdb_protocols.Runtime} event stream and
    accumulates counts; {!snapshot} turns them into inputs for
    {!Txn_cost}.  A prior lock hold time U of 30 for every protocol, the
    scale of one round trip plus compute in the default network, keeps
    the selector sane before any data exists (paper: "collected
    periodically or estimated through analytical methods"). *)

type snapshot = {
  params : Stl_model.params;
  rates : Txn_cost.rates;
      (** per-copy read and write rates, read from the live counters when
          called: valid only until the estimator sees another event or
          the clock moves, and raises [Invalid_argument] after that *)
  two_pl : Txn_cost.two_pl_stats;
  t_o : Txn_cost.to_stats;
  pa : Txn_cost.pa_stats;
  response_time : Ccdb_model.Protocol.t -> float;
      (** mean observed system time per protocol (EMA) when the snapshot
          was taken — input for the response-time selection criterion that
          section 5.1 argues against (measured by experiment X7); 60,
          twice the prior hold time, before any observation *)
}

(** Where the rate-like estimates come from.

    Lock hold times and per-protocol response times are exponential moving
    averages either way (they adapt by construction); the source decides
    how throughputs, Q{_r}, k and the failure probabilities are computed. *)
type source =
  | Cumulative
      (** whole-run averages: counts since creation over elapsed time.
          Stable, but blind to mid-run workload shifts — after a phase
          change the old phase keeps diluting the rates forever. *)
  | Windowed of float
      (** sliding-window measurement over the trailing [window] time
          units: λ, per-copy rates, Q{_r}, k and the failure probabilities
          are computed from windowed event counts, so a phase change is
          fully reflected one window later.  The window is 8 fixed
          buckets; expiry is per bucket, O(1) per event.  A window that
          drains completely falls back to the cumulative values (stale
          estimates beat undefined ones), and windowed failure
          probabilities are shrunk towards the cumulative EMA with a small
          pseudo-count so rare events (deadlocks, rejections) are not
          forgotten the moment they expire from the window.  This is the
          measured-λ source behind [--adaptive measured]
          (OBSERVABILITY.md). *)

type t
(** A live estimator, subscribed to one runtime's event stream. *)

val create : ?source:source -> Ccdb_protocols.Runtime.t -> t
(** Subscribes to the runtime's event stream immediately.  [source]
    defaults to [Cumulative] (the historical behaviour).
    @raise Invalid_argument on [Windowed w] with [w <= 0.]. *)

val snapshot : t -> snapshot
(** Current estimates.  Copies with no observed traffic report rate 0;
    protocols with no observations fall back to the prior.  [params.k] and
    [params.q_r] are estimated across all protocols; [params.lambda_a] is
    the sum of all per-copy rates (at least a small epsilon, so
    {!Stl_model.stl'} stays defined).  Under a [Windowed] source all of
    these come from the trailing window (see {!source}). *)
