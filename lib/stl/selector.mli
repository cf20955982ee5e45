(** Minimum-STL protocol selection (section 5.2).

    For each new transaction the selector evaluates STL_2PL, STL_T/O and
    STL_PA from the current estimator snapshot and picks the cheapest.
    Transactions can be bucketed into classes (by size and read/write mix)
    whose decisions are cached and refreshed periodically — the paper's
    "transactions may be categorized into different classes and the STL for
    each class may be calculated in advance". *)

type verdict = {
  chosen : Ccdb_model.Protocol.t;
  costs : (Ccdb_model.Protocol.t * float) list;
      (** STL of each protocol, in {!Ccdb_model.Protocol.all} order *)
}

val footprint :
  Ccdb_storage.Catalog.t ->
  site:int ->
  read_set:int list ->
  write_set:int list ->
  Txn_cost.footprint
(** The physical copies the transaction will touch (read-one/write-all,
    local copy preferred), matching how every system routes requests. *)

(** Which quantity the selector minimises. *)
type criterion =
  | Min_stl
      (** the paper's criterion: expected system-throughput loss *)
  | Min_response_time
      (** the alternative section 5.1 argues against — minimise the
          transaction's own expected system time; experiment X7 measures
          the difference *)

val evaluate :
  ?criterion:criterion -> Estimator.snapshot -> Txn_cost.footprint -> verdict
(** Evaluates all three protocols; [criterion] defaults to [Min_stl], and
    ties break in {!Ccdb_model.Protocol.all} order. *)

type t
(** A selector with its class-decision cache and snapshot source. *)

val create :
  ?criterion:criterion ->
  snapshot:(unit -> Estimator.snapshot) ->
  Ccdb_storage.Catalog.t ->
  t
(** A class decision is reused for 100 time units before it is
    re-evaluated.  Fresh evaluations read their STL inputs from [snapshot]:
    {!Estimator.snapshot} of a live estimator, or the analytic design-time
    parameters that {!Core.Dynamic_cc} plugs in for its [Configured]
    adaptivity. *)

val choose : t -> now:float -> Ccdb_model.Txn.t -> verdict
(** Selects a protocol for the transaction (its own [protocol] field is
    ignored).  Class key: (reads, writes) counts — transactions of the same
    shape share a cached decision within the TTL. *)

val decisions : t -> (Ccdb_model.Protocol.t * int) list
(** How many transactions were routed to each protocol so far, for the
    protocols chosen at least once, in {!Ccdb_model.Protocol.all} order. *)
