(** Dynamic concurrency control: the complete system of the paper.

    Wraps {!Unified_system} with the STL-based selector — every submitted
    transaction is routed to the protocol (2PL, T/O or PA) whose estimated
    system-throughput loss is smallest, with parameters estimated online
    from the run itself (section 5). *)

(** Where the selector's STL inputs come from (section 5.2 offers both:
    parameters "can either be collected periodically or estimated through
    analytical methods"). *)
type adaptivity =
  | Configured of Ccdb_stl.Analytic.workload
      (** design-time choice: a single {!Ccdb_stl.Analytic.snapshot} of
          the configured workload description, computed once — the
          selector never sees a measurement (X3's policy as a live mode) *)
  | Cumulative
      (** whole-run online estimation (the historical default): counts
          since startup over elapsed time, so early phases dilute the
          estimates forever *)
  | Measured of { window : float }
      (** sliding-window measurement: λ, Q{_r}, per-copy rates and
          failure probabilities from the trailing [window] time units
          ({!Ccdb_stl.Estimator.source}), so protocol choice tracks a
          phase change within one window — surfaced on the CLI as
          [--adaptive measured] and proved out by experiment E14 *)

type config = {
  unified : Unified_system.config;
  reselect_on_restart : bool;
      (** the paper's future-work item (4): re-run the selector whenever a
          transaction restarts, letting it switch protocol mid-life *)
  criterion : Ccdb_stl.Selector.criterion;
      (** what the selector minimises; [Min_stl] is the paper's choice *)
  adaptive : adaptivity;
      (** parameter source for the selector; [Cumulative] by default *)
}

val default_config : config
(** reselect_on_restart is off by default (the paper's base design);
    [adaptive] is [Cumulative]. *)

type t

val create : ?config:config -> Ccdb_protocols.Runtime.t -> t

val submit :
  t -> ?payload:Ccdb_protocols.Lifecycle.payload_fn -> Ccdb_model.Txn.t -> unit
(** The transaction's own [protocol] field is ignored; the selector decides.
    @raise Invalid_argument on a duplicate live transaction id. *)

val decisions : t -> (Ccdb_model.Protocol.t * int) list
(** Transactions routed to each protocol so far. *)

val unified : t -> Unified_system.t
val estimator : t -> Ccdb_stl.Estimator.t
