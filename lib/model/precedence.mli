(** The unified precedence space (UPS) of section 4.1.

    Every request in a data queue carries a precedence.  T/O and PA requests
    use their transaction's timestamp; a 2PL request entering queue [j] is
    assigned the largest timestamp that has ever appeared in queue [j] before
    its arrival, which pins it to the tail and preserves FCFS among 2PL
    requests.  Ties are broken exactly as in the paper:

    + compare timestamp values;
    + compare the site ids of the issuing transactions, a 2PL transaction
      counting as having the {e biggest} site id;
    + if still tied, both requests are 2PL or both are not: two 2PL requests
      compare by arrival order at the data queue, two timestamped requests
      compare by transaction id.

    The resulting order is total on any set of requests in one queue (two
    distinct timestamped requests of different transactions never tie
    completely because site id + transaction id disambiguate; 2PL requests
    in the same queue have distinct arrival ranks). *)

type origin =
  | Timestamped of { site : int; txn : int }
      (** a T/O or PA request: issued by [txn] from [site] *)
  | Queue_local of { arrival : int }
      (** a 2PL request: [arrival] is its arrival rank at this data queue *)

type t = { ts : Timestamp.t; origin : origin }

val timestamped : ts:Timestamp.t -> site:int -> txn:int -> t
val queue_local : ts:Timestamp.t -> arrival:int -> t

val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

val is_two_pl : t -> bool
(** [true] iff the precedence was assigned queue-locally (a 2PL request). *)
