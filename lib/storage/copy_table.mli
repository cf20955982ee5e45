(** One lazily created value per physical copy, indexed by the catalog's
    dense copy id ({!Catalog.copy_id}).  It holds the per-copy state of
    the store and of each system's queue managers: a lookup is an array
    read, with no allocation, hashing or polymorphic comparison.

    A value exists once [get] has created it; [find], [fold] and
    [iter_site] only see existing values and never create one.  Asking for
    a site that holds no copy of the item raises, it never creates. *)

type 'a t

val create : Catalog.t -> (unit -> 'a) -> 'a t
(** An empty table; [make] builds a copy's value on its first [get]. *)

val get : 'a t -> item:int -> site:int -> 'a
(** The copy's value, created on first use.
    @raise Invalid_argument unless [site] holds a copy of [item]. *)

val find : 'a t -> item:int -> site:int -> 'a option
(** The copy's value if it exists.
    @raise Invalid_argument unless [site] holds a copy of [item]. *)

val fold : (item:int -> site:int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Every existing value, in ascending copy-id order (items ascending). *)

val iter_site : 'a t -> int -> (int -> 'a -> unit) -> unit
(** [iter_site t site f] calls [f item v] for every existing value of a
    copy hosted at [site], in ascending item order.  It visits only the
    items with a copy there, not every item.
    @raise Invalid_argument on an out-of-range site. *)
