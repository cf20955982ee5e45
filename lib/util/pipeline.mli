(** A bounded single-producer/single-consumer ring whose consumer runs on
    a worker domain.

    The producer {!push}es items; a worker domain, spawned at the first
    push, hands them to the consumer one at a time, in push order.  The
    producer publishes its pushes every [batch] items, and the worker
    hands freed slots back every [batch] items.  Each side spins briefly
    when it must wait for the other, then sleeps on a condition variable.
    The worker clears every slot as it reads it, so the ring holds no
    reference to a consumed item.

    Only one domain may push, and only that domain may call {!finish}.
    The consumer runs on the worker: it must not touch state the producer
    uses until {!finish} has returned.  Whether a worker domain may be
    spent at all is the caller's decision ({!Pool.reserve_domain}). *)

type 'a t

val create :
  capacity:int -> batch:int -> dummy:'a -> ('a -> unit) -> 'a t
(** [create ~capacity ~batch ~dummy consume] is an empty ring of
    [capacity] slots; nothing is spawned yet.  [dummy] fills free slots.
    @raise Invalid_argument unless [1 <= batch <= capacity]. *)

val push : 'a t -> 'a -> unit
(** Appends an item, spawning the worker if none runs.  Blocks while the
    ring is full. *)

val finish : 'a t -> unit
(** Publishes what is left, waits until the worker has consumed every
    item pushed and joins it; a no-op if no worker runs.  The ring is
    then empty and reusable: the next {!push} spawns a new worker.  If
    the consumer raised, the worker dropped every later item and
    [finish] re-raises the first exception, with its backtrace, after
    the join. *)
