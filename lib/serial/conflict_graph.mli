(** Conflict graphs over executed transactions.

    Built from the per-copy implementation logs: there is an edge
    [ti -> tj] when a pair of conflicting operations from distinct
    transactions appears in some log with [ti]'s operation first.  The
    execution is conflict serializable iff this graph is acyclic
    (Theorem 1 / section 4.3 of the paper). *)

type t

val of_logs : (Ccdb_storage.Store.copy * Ccdb_storage.Store.log_entry list) list -> t

val of_edges : nodes:int list -> edges:(int * int) list -> t
(** Build directly from isolated nodes and edges over any int ids; a
    self-edge adds its node only.  A thin wrapper over {!Builder}. *)

(** One reusable path from an edge stream to a graph, for a caller that
    rebuilds a graph periodically (the centralized deadlock detector).
    It keeps its id numbering and its edge buffers across {!clear}, so a
    rebuild allocates only the graph it returns. *)
module Builder : sig
  type graph := t
  type t

  val create : unit -> t
  (** An empty builder.  Its buffers are allocated on first use. *)

  val clear : t -> unit
  (** Forgets every node and edge, keeping the buffers. *)

  val add_node : t -> int -> unit
  (** Adds a node, isolated unless an edge also names it. *)

  val add : t -> int -> int -> unit
  (** [add b src dst] adds the edge [src -> dst] and both its nodes;
      repeats are allowed.  A self-edge adds its node only. *)

  val graph : t -> graph
  (** The graph over every node and edge added since the last {!clear}:
      the one {!of_edges} builds from them.  The builder is unchanged. *)
end

val nodes : t -> int list
(** Sorted transaction ids appearing in any log. *)

val edges : t -> (int * int) list
(** Deduplicated, lexicographically sorted; self-edges are never included. *)

val has_cycle : t -> bool

val find_cycle : t -> int list option
(** Some witness cycle [t1; t2; ...; tk] with an edge from each element to
    the next and from [tk] back to [t1]; [None] when acyclic. *)

val topological_order : t -> int list option
(** A serialization order (Kahn's algorithm, smallest-id-first for
    determinism); [None] when cyclic. *)
