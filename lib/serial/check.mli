(** Serializability verdicts over complete executions.

    These are the oracles the test-suite and the experiment harness run
    against every simulated execution: Theorem 2 of the paper promises that
    the unified algorithm only produces conflict-serializable executions. *)

type logs = (Ccdb_storage.Store.copy * Ccdb_storage.Store.log_entry list) list

val conflict_serializable : logs -> bool
(** Acyclicity of the conflict graph (Theorem 1). *)

val serialization_order : logs -> int list option
(** A witnessing total order when serializable. *)

val violation_witness : logs -> int list option
(** A cycle of transaction ids when {e not} serializable. *)

val witness_detail : logs -> int list -> Incremental.edge list
(** Decorates a {!violation_witness} cycle with provenance: for each
    consecutive pair (including the wrap-around), the first copy and
    conflicting operation pair that orders it.  Pairs with no such log
    evidence are dropped (never happens on a genuine witness). *)

val brute_force_serializable : logs -> bool option
(** Independent oracle: enumerates all permutations of the transactions and
    checks each conflicting pair is consistently ordered.  Returns [None]
    when more than 8 transactions are involved (8! = 40,320 orders). *)

val replica_consistent : Ccdb_storage.Store.t -> bool
(** With read-one/write-all, every copy of an item must apply the same
    writes in the same order and end with the same value.  A redundant
    corollary of conflict serializability, checked independently. *)
