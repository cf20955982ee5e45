(** Online statistics accumulators.

    {!t} keeps exact mean/variance/extrema via Welford's algorithm plus the
    full sample (simulation runs are bounded, so retaining samples for exact
    percentiles is affordable and keeps results reproducible). *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val total : t -> float
val mean : t -> float
(** Mean of the observations; [0.] when empty. *)

val variance : t -> float
(** Unbiased sample variance; [0.] with fewer than two observations. *)

val stddev : t -> float
val min_value : t -> float
(** @raise Invalid_argument when empty. *)

val max_value : t -> float
(** @raise Invalid_argument when empty. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0, 100\]], nearest-rank on the sorted
    sample.  @raise Invalid_argument when empty or [p] out of range. *)

val sort_floats : float array -> unit
(** Sorts in place into exactly the array [Array.sort compare] gives, bit
    for bit (nan first, ties placed alike), without boxing the floats it
    compares.  {!percentile} sorts with it. *)

val merge : t -> t -> t
(** Combine two accumulators into a fresh one. *)

(** Confidence intervals across replications. *)
module Ci : sig
  val mean_ci95 : float array -> float * float
  (** [mean_ci95 xs] is [(mean, halfwidth)] of a 95% normal-approximation
      confidence interval over replication means ([halfwidth = 0.] for fewer
      than two points). *)
end
