(** The transaction lifecycle every system shares (DESIGN.md section 4,
    "One lifecycle").

    Every system runs a transaction the same way: it admits it, issues
    the requests of an attempt over the catalog's read-one/write-all
    footprint, collects grants, computes the values to write, then
    releases or commits; a failed attempt restarts after a backoff.  What
    differs is the queue discipline at each copy and the issuer's state
    machine, and those stay in each system.  The plumbing around them is
    written once here: the live-transaction registry and the commit
    announcement, the footprint and payload helpers, the restart timer,
    the crash and wipe handlers, the commit engine of the durable
    lock-based systems and the deadlock-detector glue of the 2PL-capable
    systems.

    None of it branches on which system calls it: each system passes in
    the predicates that make it different. *)

type payload_fn = (int -> int) -> (int * int) list
(** A transaction body: given a function returning the value read for each
    item in its access sets, produces the [(item, value)] pairs to write.
    It must be a function of what it reads alone: a system may run it more
    than once per commit.  When omitted, every written item receives the
    transaction id.  Only pure 2PL and the unified system take one; every
    other system writes the transaction id. *)

(** {2 Live transactions} *)

type 'st live
(** A system's submitted transactions, keyed by id, with their per-system
    state ['st], the count of those still active, and the system's
    deadlock detector, if it has one. *)

val live : Runtime.t -> 'st live

val admit : 'st live -> duplicate:string -> int -> 'st -> unit
(** [admit live ~duplicate id st] registers a submitted transaction: it
    becomes findable and active.
    @raise Invalid_argument [duplicate] if [id] is live. *)

val find : 'st live -> int -> 'st option

val remove : 'st live -> int -> unit
(** The transaction is no longer findable. *)

val commit :
  'st live ->
  Ccdb_model.Txn.t ->
  submitted_at:float ->
  executed_at:float ->
  restarts:int ->
  unit
(** The transaction committed: emits its {!Runtime.event.Txn_committed}
    and counts one fewer active transaction, stopping the centralized
    detector when none is left.  It stays findable until the caller
    {!remove}s it. *)

val active : 'st live -> int

val commit_engine :
  'st live ->
  release:(txn:int -> site:int -> Ccdb_storage.Wal.action -> unit) ->
  commit_point:('st -> unit) ->
  Commit.t
(** The durable runtime's {!Commit} engine: a round decided commit
    releases its WAL actions one by one at their site, and the commit
    point runs [commit_point] on the transaction while it is live.  Its
    wipe handler runs after those registered before the call. *)

(** {2 The footprint and the payload} *)

val copies :
  Runtime.t -> Ccdb_model.Txn.t -> (int * int * Ccdb_model.Op.kind) list
(** {!Ccdb_storage.Catalog.footprint} of the transaction: one read copy
    per read item, then every copy of each written item. *)

val read_copies : Runtime.t -> Ccdb_model.Txn.t -> (int * int) list
(** {!Ccdb_storage.Catalog.read_copies} of the transaction's read set. *)

val write_copies : Runtime.t -> Ccdb_model.Txn.t -> (int * int) list
(** {!Ccdb_storage.Catalog.write_copies} of the transaction's write set. *)

val write_value :
  payload_fn option -> read:(int -> int) -> Ccdb_model.Txn.t -> int -> int
(** [write_value payload ~read txn] is the value the transaction writes to
    each item.  Without a payload it is the transaction id, and nothing is
    built or read.  With one, the payload runs once, at this partial
    application, over [read] (the value each item's grant delivered, [0]
    for an item the transaction did not access), and an item it leaves out
    receives the transaction id. *)

(** {2 Restarts and failures} *)

val schedule_restart :
  Runtime.t -> site:int -> base:float -> attempt:int -> (unit -> unit) -> unit
(** Runs the next attempt of a transaction homed at [site] after
    {!Runtime.restart_backoff}. *)

val restart_on_crash :
  'st live ->
  restartable:('st -> bool) ->
  depends_on:('st -> int -> bool) ->
  ('st -> unit) ->
  unit
(** Registers the crash handler.  When a site crashes, every restartable
    transaction that depends on it restarts, in ascending id order.  What a
    system may restart, and what it depends on, is its own business.  No
    other fault restarts a transaction: the transport delivers every
    message, however late, so a silent transaction is waiting, not
    lost. *)

val on_site_wipe :
  Runtime.t ->
  'q Ccdb_storage.Copy_table.t ->
  dropped:('q -> int list) ->
  preserved:('q -> int) ->
  unit
(** Registers the fail-stop wipe of the per-copy queues hosted at a
    crashed site, in ascending item order: [dropped q] erases [q]'s
    volatile entries and returns their transactions, each announced by an
    {!Runtime.event.Request_dropped}; [preserved q] counts what survives. *)

(** {2 Deadlock detection} *)

(** What a 2PL-capable system tells its detector about a transaction's
    state.  Cycle members and probe targets are looked up in the live
    registry; one that is gone is never waiting, restarting or abortable. *)
type 'st deadlock_policy = {
  home : 'st -> int;  (** the issuing site *)
  abortable : 'st -> bool;
      (** the phase a deadlock abort may hit: the detector sends none to
          a victim outside it *)
  restarting : 'st -> bool;
      (** already aborted: no victim is chosen from a cycle holding one,
          since that member breaks the cycle on its own *)
  eligible : int -> bool;
      (** whether a cycle member may be the victim; the victim is the
          largest eligible id.  It takes the id, since a stale queue entry
          can put a transaction that is no longer live in a cycle *)
  waiting : 'st -> bool;  (** probes pass through the transaction *)
  pending_sites : 'st -> int list;
      (** queue-manager sites holding its waits, sorted and distinct *)
  may_initiate : 'st -> bool;  (** it starts probe rounds *)
  abort : int -> unit;  (** restart a victim, at its home site *)
}

val detect_deadlocks :
  'st live ->
  Deadlock.detection ->
  'q Ccdb_storage.Copy_table.t ->
  waits_for:('q -> (int -> int -> unit) -> unit) ->
  'st deadlock_policy ->
  unit
(** Installs the detector over the system's per-copy queues: the
    centralized wait-for-graph scan or edge-chasing probes.  Each
    detection is announced by a {!Runtime.event.Deadlock_detected}. *)

val start_detector : 'st live -> unit
(** Schedules the centralized scans (no-op otherwise, and while running). *)

val blocked : 'st live -> int -> unit
(** The transaction started waiting for grants (arms its probe timer). *)

val unblocked : 'st live -> int -> unit
(** It stopped waiting: granted, committed or aborted. *)

val progress : 'st live -> int -> unit
(** It received a grant but still waits for others. *)

val detector_cycles : 'st live -> int
(** Wait-for cycles the detector resolved so far (either mechanism). *)
