(** Deterministic, splittable pseudo-random number generator.

    Every stochastic component of the simulator draws from an [Rng.t] so that
    a run is a pure function of its configuration and seed.  The generator is
    a 64-bit SplitMix64: fast, statistically adequate for simulation
    workloads, and trivially splittable so independent subsystems (arrival
    process, data-access choice, network jitter, ...) can own independent
    streams that do not perturb each other when one subsystem draws more. *)

type t

val create : seed:int -> t
(** [create ~seed] returns a fresh generator.  Equal seeds give equal
    streams. *)

val split : t -> t
(** [split t] derives a new independent generator from [t], advancing [t].
    Used to give each subsystem its own stream. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing [t]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound).  @raise Invalid_argument
    if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** [exponential t ~mean] draws from an exponential distribution with the
    given mean (i.e. rate [1. /. mean]).  @raise Invalid_argument if
    [mean <= 0.]. *)

val uniform_in : t -> lo:float -> hi:float -> float
(** Uniform draw from [\[lo, hi)]. *)

val zipf_sampler : n:int -> theta:float -> (t -> int)
(** [zipf_sampler ~n ~theta] precomputes a Zipfian CDF over [{0, ..., n-1}]
    with skew [theta >= 0.] ([theta = 0.] is uniform) and returns a sampler
    closure.  @raise Invalid_argument if [n <= 0] or [theta < 0.]. *)

val sample_distinct : t -> n:int -> universe:int -> int list
(** [sample_distinct t ~n ~universe] draws [n] distinct integers from
    [0, universe), in increasing order.  @raise Invalid_argument if
    [n > universe] or [n < 0]. *)
