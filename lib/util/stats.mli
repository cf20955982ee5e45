(** Online mean of a stream of floats, by Welford's update.

    Every field of the accumulator is a float, so OCaml stores them
    unboxed. *)

type t

val create : unit -> t
val add : t -> float -> unit

val add_span : t -> from:float -> until:float -> unit
(** [add_span t ~from ~until] is [add t (until -. from)], but allocates
    nothing when the caller passes floats it already holds boxed, such as
    an event's fields: the difference never leaves this module, so it is
    never boxed.  The runtime folds every commit's system time in this
    way. *)

val count : t -> int

val mean : t -> float
(** Mean of the observations; [0.] when empty. *)
