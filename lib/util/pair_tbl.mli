(** Int-pair-keyed hash table with monomorphic key equality, for tables
    whose iteration order is observed.  Like {!Int_tbl}, the hash is the
    generic [Hashtbl.hash], so a table iterates in exactly the order a
    generic [(int * int, _) Hashtbl.t] given the same operations would. *)

include Hashtbl.S with type key = int * int
