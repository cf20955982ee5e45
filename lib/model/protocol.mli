(** The three concurrency-control protocols integrated by the paper.

    Each transaction carries one of these; the unified queue manager treats
    requests differently according to the issuing transaction's protocol
    (Wang & Li 1988, section 4). *)

type t =
  | Two_pl  (** static Two-Phase Locking: FCFS queueing + locks *)
  | T_o     (** Basic Timestamp Ordering: late requests rejected, restart *)
  | Pa      (** Precedence Agreement: timestamp back-off negotiation *)

val all : t list
val equal : t -> t -> bool
val compare : t -> t -> int

val rank : t -> int
(** Position in [all]: [0], [1], [2]; [compare] orders by it. *)

val counted : int array -> (t * int) list
(** The protocols whose entry in a [rank]-indexed tally is not zero, with
    that entry, in [all] order. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
val of_string : string -> t option
(** Recognises ["2pl"], ["to"], ["t/o"], ["pa"] (case-insensitive). *)
