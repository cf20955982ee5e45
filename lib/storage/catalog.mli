(** Replica catalog: which sites hold a physical copy of each logical item.

    Placement is deterministic (round-robin over sites starting at
    [item mod sites]) so that a run depends only on (config, seed).  Replica
    control is read-one / write-all: a logical read turns into one physical
    read request (the local copy when present, otherwise the first copy); a
    logical write turns into one physical write request per copy. *)

type t

val create : items:int -> sites:int -> replication:int -> t
(** @raise Invalid_argument unless
    [0 < items], [0 < sites], [0 < replication <= sites]. *)

val items : t -> int
val sites : t -> int
val replication : t -> int

val copies : t -> int -> int list
(** [copies t item] is the sorted list of sites holding a copy.
    @raise Invalid_argument on an out-of-range item. *)

val has_copy : t -> item:int -> site:int -> bool
(** O(1).  @raise Invalid_argument on an out-of-range item. *)

val copy_count : t -> int
(** Number of physical copies, [items * replication]. *)

val copy_id : t -> item:int -> site:int -> int
(** Dense id of a physical copy in [\[0, copy_count t)]: the [k]-th copy
    of [item], at site [(item + k) mod sites], is [item * replication + k].
    O(1), no allocation.  Ids ascend with the item, so iterating ids in
    order visits items in order.
    @raise Invalid_argument unless [site] holds a copy of [item] (an
    out-of-range item or site is not a copy). *)

val copy_site : t -> int -> int
(** [copy_site t (copy_id t ~item ~site) = site]; the item is
    [id / replication t]. *)

val read_site : t -> preferred:int -> int -> int
(** [read_site t ~preferred item] is the site a read of [item] issued at
    [preferred] should target: [preferred] itself when it holds a copy,
    otherwise the copy whose site id follows [preferred] cyclically (a cheap
    deterministic stand-in for "nearest copy"). *)

val read_copies : t -> site:int -> int list -> (int * int) list
(** Read-one: the [(item, read_site)] copy each item of a read set issued
    at [site] reads, in read-set order. *)

val write_copies : t -> int list -> (int * int) list
(** Write-all: every [(item, site)] copy of each item of a write set, in
    write-set order, each item's copies by ascending site. *)

val footprint :
  t ->
  site:int ->
  read_set:int list ->
  write_set:int list ->
  (int * int * Ccdb_model.Op.kind) list
(** Every physical request of a transaction issued at [site]:
    {!read_copies} tagged [Read], then {!write_copies} tagged [Write]. *)

val all_copies : t -> (int * int) list
(** Every physical copy as an [(item, site)] pair, lexicographically. *)
