(** Imperative binary min-heap with user-supplied ordering and O(log n)
    removal of arbitrary elements via handles.

    This is the core of the discrete-event engine: events are pushed with
    their firing time and may be cancelled (removed) before they fire. *)

type 'a t

type handle
(** A handle onto an element currently (or formerly) in a heap.  Handles
    become invalid after the element is popped or removed. *)

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] builds an empty heap ordered by [cmp] (smallest first). *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> handle
(** [push t x] inserts [x] and returns a handle usable with {!remove}. *)

val peek : 'a t -> 'a option
(** Smallest element, if any, without removing it. *)

val pop : 'a t -> 'a option
(** Removes and returns the smallest element. *)

val remove : 'a t -> handle -> bool
(** [remove t h] removes the element behind [h] if it is still present;
    returns [false] if the handle was already popped/removed. *)

val mem : 'a t -> handle -> bool
(** [mem t h] is [true] iff the element behind [h] is still in the heap. *)

val clear : 'a t -> unit

val to_sorted_list : 'a t -> 'a list
(** Non-destructive: returns all elements in increasing order (O(n log n)). *)
