(** Int-keyed hash table with monomorphic key equality, for transaction
    tables on the per-event path.  The hash is the generic [Hashtbl.hash],
    so a table iterates in exactly the order a generic
    [(int, _) Hashtbl.t] given the same operations would: switching a
    table over changes no observable order. *)

include Hashtbl.S with type key = int
