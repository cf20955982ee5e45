(** Transaction descriptors.

    A legal transaction (section 2) has a read phase, a local-computing
    phase, and a write phase, with predeclared read and write sets of
    {e logical} data items.  An item present in both sets is accessed through
    a single write request — the write lock covers the read, matching the
    static (predeclared) model the paper analyses and keeping the precedence
    assignment one-to-one per queue. *)

type t = {
  id : int;               (** globally unique transaction id *)
  site : int;             (** the site of the issuing request issuer *)
  read_set : int list;    (** logical items read (sorted, distinct) *)
  write_set : int list;   (** logical items written (sorted, distinct) *)
  compute_time : float;   (** duration of the local-computing phase *)
  protocol : Protocol.t;  (** concurrency-control protocol for this txn *)
}

val make :
  id:int ->
  site:int ->
  read_set:int list ->
  write_set:int list ->
  compute_time:float ->
  protocol:Protocol.t ->
  t
(** Normalises the sets (sorts, dedups, removes write-set items from the
    read set).  @raise Invalid_argument if both sets are empty, if
    [compute_time < 0.], or if any item id is negative. *)

val size : t -> int
(** Number of logical requests ([st] in the paper). *)

val accesses : t -> (int * Op.kind) list
(** All (item, kind) pairs, reads then writes, each item once. *)

val pp : Format.formatter -> t -> unit
