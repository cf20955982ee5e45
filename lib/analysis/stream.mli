(** Streaming analyzer: all four audits plus an incremental Theorem 2
    check, advanced one event at a time while the simulation runs.

    Subscribe [feed] to the runtime's event stream (or fold it over a
    recorded trace) and call [report] once at end of run.  It numbers
    the events and collects every audit's findings through one sink.  The
    serializability side consumes the {!Ccdb_protocols.Runtime.event.Op_implemented}
    / [Reads_discarded] events the store emits, maintaining a
    Pearce–Kelly incremental conflict graph whose verdict matches the
    batch analyzer ({!Analyzer.analyze}) on every trace; with [catalog]
    the committed prefix of the graph is garbage-collected so memory
    tracks the in-flight window, not the trace length. *)

type state

val create :
  ?theorem2:bool -> ?catalog:Ccdb_storage.Catalog.t -> unit -> state
(** [theorem2] (default [true]) enables the incremental conflict graph;
    pass [false] for systems whose store is not a write-all log (MVTO),
    mirroring the batch analyzer being run without a store.  [catalog]
    enables committed-prefix GC; omit it for hand-built traces whose
    events may not line up with any catalog. *)

val feed : state -> Ccdb_protocols.Runtime.event -> unit
(** Advances every audit by one event (flat per-event cost): lock,
    precedence, theorem, consensus. *)

val report : ?store:Ccdb_storage.Store.t -> state -> Report.t
(** Every finding [feed] raised plus the end-of-trace ones — leaked
    locks, 2PC atomicity and, when [store] is given, as for the batch
    analyzer, the Theorem 2 serializability verdict (from the incremental
    graph, not a log scan), replica convergence and durability — as a
    sorted report comparable to {!Analyzer.analyze}'s.  Call once: a
    second call collects the end-of-trace findings again. *)

type stats = {
  events_fed : int;
  live_nodes : int;       (** conflict-graph nodes not yet collected *)
  collected_nodes : int;  (** retired and garbage-collected transactions *)
  graph_work : int;       (** {!Ccdb_serial.Incremental.work} *)
}

val stats : state -> stats
(** Events fed so far and the incremental conflict graph's size and work,
    the columns of experiment E13 (the graph's fields read [0] under
    [~theorem2:false]). *)
