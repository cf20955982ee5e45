(** Deterministic discrete-event simulation engine.

    Time is a [float] in abstract milliseconds.  Events live in one heap
    ordered by (time, seq): events scheduled for the same instant fire in
    schedule order (FIFO tie-break on a sequence number allocated at
    schedule time), which makes every run fully deterministic given the
    same sequence of [schedule] calls.  See DESIGN.md §14 for the heap and
    for why the engine is one heap. *)

type t
(** A mutable event queue with a clock; one per simulation. *)

type time = float
(** Simulation time in abstract milliseconds. *)

type handle = int
(** Handle for cancelling a scheduled event: its slot in the engine and
    that slot's generation, packed in one non-negative int.  Handles are
    never negative, so [-1] can stand for "no event". *)

val create : unit -> t
(** A fresh engine: empty queue, clock at 0. *)

val now : t -> time
(** Current simulation time (0. before any event has fired). *)

val schedule : t -> after:time -> (unit -> unit) -> handle
(** [schedule t ~after f] fires [f] at [now t +. after].  [after] must be
    [>= 0.]; negative and NaN delays raise [Invalid_argument]. *)

val schedule_at : t -> at:time -> (unit -> unit) -> handle
(** Absolute-time variant; [at] must be [>= now t] (a NaN [at] raises
    [Invalid_argument] too). *)

val reserve : t -> int -> int
(** [reserve t n] allocates the next [n] sequence numbers, the tie-break
    keys the next [n] calls to {!schedule_at} would draw, and returns the
    first; nothing is queued.  [n] may be 0.  An event later pushed with
    {!schedule_reserved} under one of them fires exactly where an event
    scheduled at the reservation, for the same time, would have fired,
    provided it is pushed before anything due after it fires: in
    practice, strictly before its time.  A reserved key that is never
    pushed costs nothing.  @raise Invalid_argument if [n < 0]. *)

val schedule_reserved :
  t -> at:time -> seq:int -> (unit -> unit) -> handle
(** [schedule_reserved t ~at ~seq f] queues [f] at absolute time [at]
    under the sequence number [seq], which must come from {!reserve} and
    must be pushed at most once.  Raises [Invalid_argument] if [at] is
    before [now t] or NaN, or if [seq] was never reserved. *)

val feed : t -> n:int -> (unit -> time * (unit -> unit)) -> unit
(** [feed t ~n next] schedules [n] events drawn one at a time: [next]
    draws the first [(at, f)] at the call, and each later one as its
    predecessor fires, before the predecessor's [f] runs.  The members
    take one consecutive block of sequence numbers at the call, so they
    fire exactly as {!schedule_at} calls made at the call, in draw order,
    would; a member draws nothing until it fires, and members cannot be
    cancelled.  Each member must be due no earlier than its predecessor
    (the first, no earlier than [now t]).
    @raise Invalid_argument if [n < 0], or when a drawn member is due
    before its predecessor or at a NaN time: from the call for the first
    member, from {!run} or {!step} for the others.  A list sorted by time
    is fed by drawing its members in order; an unsorted batch takes a
    {!reserve}d block and {!schedule_reserved}. *)

val cancel : t -> handle -> bool
(** [cancel t h] prevents the event from firing; returns [false] if it
    already fired or was cancelled, even once another event has taken its
    slot (that event stays queued), and for any int no push returned. *)

val run : ?until:time -> ?max_events:int -> t -> unit
(** Processes events in (time, seq) order until the queue is empty,
    [until] is passed (events strictly after [until] stay queued; [now] is
    clamped to [until]), or [max_events] have fired. *)

val step : t -> bool
(** Fires the single next event; [false] if the queue was empty. *)

val pending : t -> int
(** Number of queued events, counting the {!feed} members not drawn yet. *)

val processed : t -> int
(** Number of events fired so far. *)
