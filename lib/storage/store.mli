(** Physical storage: one integer-valued cell per physical copy, holding
    its current value and the per-copy {e implementation log} that is the
    paper's model of execution (section 2: "there is one log associated with
    each physical data item").  The log is the copy's only history: each
    write's transaction, instant and order are read from it, and no earlier
    value is kept.

    The queue managers call [log_read]/[apply_write] at the instant an
    operation is {e implemented} in the paper's sense (section 4.3): at lock
    release for 2PL/PA operations, at lock-to-semi-lock transform or release
    — whichever happens first — for T/O operations. *)

type copy = int * int
(** A physical copy as [(item, site)]. *)

type log_entry = {
  txn : int;
  kind : Ccdb_model.Op.kind;
  at : float;  (** simulation time of implementation *)
}

type t

val create : Catalog.t -> t
(** All copies start with value [0] and an empty log. *)

val catalog : t -> Catalog.t

val read : t -> item:int -> site:int -> int
(** Current value of the copy.  @raise Invalid_argument if the site holds no
    copy of the item. *)

val apply_write : t -> item:int -> site:int -> txn:int -> value:int -> at:float -> unit
(** Implements a physical write: updates the value and appends to the
    implementation log. *)

val log_read : t -> item:int -> site:int -> txn:int -> at:float -> unit
(** Implements a physical read (appends to the implementation log only). *)

val discard_reads : t -> item:int -> site:int -> txn:int -> unit
(** Removes the transaction's read entries from the copy's log.  Basic T/O
    implements reads at grant time but a transaction may later be rejected
    elsewhere and restart; the serializability oracle must only see the
    committed projection of the execution, so the aborted attempt's reads
    are withdrawn (reads have no effect on data, only on the log). *)

val log : t -> item:int -> site:int -> log_entry list
(** Implementation log of one copy, oldest first. *)

val logs : t -> (copy * log_entry list) list
(** All per-copy logs, copies in lexicographic order, entries oldest
    first. *)

val on_append : t -> (item:int -> site:int -> log_entry -> unit) -> unit
(** Registers an observer called synchronously after every log append
    ([apply_write] or [log_read]), with the copy and the entry just
    appended.  Observers fire newest-registered first. *)

val on_discard :
  t -> (item:int -> site:int -> txn:int -> removed:int -> unit) -> unit
(** Registers an observer called synchronously after [discard_reads]
    actually removes entries ([removed > 0]; no notification for no-op
    discards). *)
