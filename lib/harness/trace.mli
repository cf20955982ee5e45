(** Event tracing: record a runtime's event stream and render it as a
    human-readable timeline.  Used by the examples and invaluable when
    debugging protocol interleavings. *)

type t

val attach : Ccdb_protocols.Runtime.t -> t
(** Registers an observer ({!Ccdb_protocols.Runtime.observe})
    immediately; events from then on are recorded.  Read the trace only
    between runs: during {!Ccdb_protocols.Runtime.run} or [quiesce] it
    may be filling on another domain. *)

val events : t -> Ccdb_protocols.Runtime.event list
(** Recorded events, oldest first. *)

val to_array : t -> Ccdb_protocols.Runtime.event array
(** Recorded events, oldest first, as an array (for indexed analysis). *)

val render : ?limit:int -> t -> string
(** One line per event ([limit] most recent when set), e.g.
    {v
      12.0  grant   t3 [2PL] w(x@s1)
      47.3  commit  t3 after 0 restarts (S=47.3)
    v} *)

val count : t -> int
(** Number of recorded events; O(1) (a running counter, not a list
    traversal). *)
