(** Synthetic transaction workloads.

    The specification covers exactly the parameters the paper names as
    performance-relevant (sections 1 and 5): arrival rate [lambda]
    (Poisson), transaction size [st], the read/write mix, data-access skew,
    transmission delay (owned by the network config), and compute time.
    A protocol mix assigns each generated transaction its concurrency
    control protocol (ignored by the dynamic selector). *)

type access =
  | Uniform
  | Zipf of float  (** skew theta > 0 *)
  | Hotspot of { hot_items : int; hot_prob : float }
      (** a fraction [hot_prob] of accesses land uniformly in the first
          [hot_items] items *)

type spec = {
  arrival_rate : float;   (** transactions per time unit (Poisson process) *)
  size_min : int;         (** minimum items accessed *)
  size_max : int;         (** maximum items accessed (inclusive) *)
  read_fraction : float;  (** probability an accessed item is read *)
  access : access;
  compute_mean : float;   (** mean of the exponential compute time *)
  protocol_mix : (Ccdb_model.Protocol.t * float) list;
      (** weights, normalised internally; must be non-empty *)
}

val default : spec
(** rate 0.05, size 1-3, read fraction 0.5, uniform access, compute mean 5.,
    all-2PL. *)

val validate : spec -> items:int -> unit
(** @raise Invalid_argument on nonsensical parameters (non-positive rate,
    [size_max > items], empty mix, fractions outside [0,1], ...). *)

type t

val create : spec -> sites:int -> items:int -> Ccdb_util.Rng.t -> t
(** The generator owns the RNG passed in; validation as {!validate}. *)

val generate : t -> n:int -> start:float -> (float * Ccdb_model.Txn.t) list
(** [generate t ~n ~start] draws [n] transactions with absolute submission
    times from a Poisson process beginning at [start].  Transaction ids
    count up from 1 on first use and keep increasing across calls.  Sites
    are assigned round-robin randomised; read-only and write-only
    transactions arise naturally from the mix (a transaction whose draw
    leaves it with no accesses gets one access forced). *)

val phased :
  (spec * int) list ->
  sites:int ->
  items:int ->
  Ccdb_util.Rng.t ->
  (float * Ccdb_model.Txn.t) list
(** [phased [(spec1, n1); (spec2, n2); ...] ~sites ~items rng] concatenates
    the phases of a non-stationary workload: [n1] transactions drawn from
    [spec1], then [n2] from [spec2] whose Poisson arrivals continue from the
    last arrival of phase 1, and so on.  Arrival times never decrease and
    transaction ids keep increasing across phases, so the phases flow
    through the same driver path as a single-spec workload.  Used by the
    phase-change experiment E14.
    @raise Invalid_argument on an empty phase list, a non-positive phase
    count, or an invalid spec (as {!validate}). *)

(** {2 Arrivals drawn when due}

    A stream of arrivals draws each transaction when it is pulled, from
    the same RNG draws in the same order as {!generate} and {!phased},
    so its members equal theirs one for one.  A run that pulls each
    arrival when its predecessor fires holds only the arrivals in
    flight, not the whole workload. *)

type arrivals

val arrivals : t -> n:int -> start:float -> arrivals
(** The [n] arrivals [generate t ~n ~start] would return, drawn one at a
    time; nothing is drawn yet.  @raise Invalid_argument if [n < 0]. *)

val phased_arrivals :
  (spec * int) list -> sites:int -> items:int -> Ccdb_util.Rng.t -> arrivals
(** The arrivals of {!phased}, drawn one at a time.  Every phase is
    validated here, with {!phased}'s exceptions. *)

val remaining : arrivals -> int
(** How many arrivals are still to be pulled. *)

val peek : arrivals -> (float * Ccdb_model.Txn.t) option
(** The next arrival without consuming it (it is drawn now if it was not
    yet); [None] when none is left.  Arrival times never decrease, so
    the first peek gives the earliest arrival. *)

val pull : arrivals -> float * Ccdb_model.Txn.t
(** Consumes the next arrival.
    @raise Invalid_argument when none is left. *)

val pp_spec : Format.formatter -> spec -> unit
