(** Transaction timestamps and the PA back-off (section 3.4).

    Timestamps are integers drawn from a per-system monotone counter; the
    paper's back-off arithmetic ([TS' = TS + k * INT], smallest k in N making
    the result acceptable) needs only ordering and addition. *)

type t = int

val compare : t -> t -> int

val backoff_interval : int
(** INT, the back-off step of every PA transaction, in the pure PA system
    and in the unified one: 8 (the paper leaves the choice free; a constant
    matching the timestamp granularity works well). *)

val backoff : ts:t -> floor:t -> t
(** [backoff ~ts ~floor] is the smallest [ts + k * backoff_interval] with
    [k] in [{1, 2, ...}] that is strictly greater than [floor] — the
    back-off timestamp [TS'_ij] a data queue computes when the request with
    timestamp [ts] arrives too late (section 3.4, step 2c).  When even
    [k = 1] does not clear [floor], larger [k] are taken. *)

(** Monotone timestamp source, one per simulated system. *)
module Source : sig
  type nonrec t

  val create : unit -> t

  val next : t -> int
  (** Strictly increasing across calls, starting at 1. *)

  val current : t -> int
  (** The last value handed out (0 initially): a lower bound on every
      future [next] result, which is what a conservative T/O site advertises
      when it has no transaction in flight. *)
end
