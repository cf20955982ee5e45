(** Entry point: run every invariant checker over a completed event stream.

    The analyzer is static — it never re-runs the execution.  It replays
    the recorded events through three independent models:

    - {!Lock_audit}: the semi-lock compatibility matrix of section 4.2;
    - {!Precedence_audit}: conditions E1/E2 of the Precedence-Assignment
      Model (sections 3 and 4.1);
    - {!Theorem_audit}: Corollaries 1 and 2 and, when [store] is supplied,
      Theorem 2 over the final implementation logs. *)

val analyze :
  ?store:Ccdb_storage.Store.t ->
  Ccdb_protocols.Runtime.event array ->
  Report.t

val analyze_stream :
  ?store:Ccdb_storage.Store.t ->
  ?catalog:Ccdb_storage.Catalog.t ->
  ?theorem2:bool ->
  Ccdb_protocols.Runtime.event array ->
  Report.t
(** The same verdicts via the streaming path ({!Stream}): folds the events
    through the per-event audits and the incremental conflict graph.  Used
    by the differential tests; the driver feeds {!Stream} directly instead
    of recording a trace. *)

val diff : batch:Report.t -> stream:Report.t -> string list
(** Divergences between a batch and a streaming report over the same
    trace: one line per finding present on one side only (compared
    field-for-field), plus events-scanned and [thm.not-serializable]-count
    mismatches (that check's witness may legitimately differ, so it is
    compared by count).  Empty means the reports agree. *)
