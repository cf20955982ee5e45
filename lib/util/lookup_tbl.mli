(** Hash tables keyed by one, two or three ints, with monomorphic equality
    and an inline arithmetic hash: a lookup neither calls the polymorphic
    hash nor compares through [compare_val].

    The hash is not the generic one, so these tables iterate in an order
    of their own.  Use them only where nothing iterates the table, or
    where every iteration is sorted before it is used; a table whose
    iteration order can be observed takes {!Int_tbl} or {!Pair_tbl}. *)

module Int : Hashtbl.S with type key = int
(** The key is its own hash. *)

module Pair : Hashtbl.S with type key = int * int
(** Hash [a * 65599 + b], as for [(item, site)] copies or
    [(txn, attempt)] entries. *)

module Triple : Hashtbl.S with type key = int * int * int
(** Hash [(a * 65599 + b) * 65599 + c], as for [(txn, item, site)]
    operations on a copy. *)
