(** Latency histogram with HDR-style logarithmic buckets.

    The bucket layout is {e fixed} — it does not depend on the recorded
    data.  Bucket 0 covers [\[0, 1)]; above that, every power-of-two octave
    [\[2{^e}, 2{^e+1})] is split into {!sub_buckets} equal linear
    sub-buckets, so a recorded value is represented with a relative error
    below [1 / sub_buckets] (6.25%).

    All operations are deterministic; histograms never record wall-clock
    time, only the simulated-time values handed to {!record}. *)

type t

val sub_buckets : int
(** Linear sub-buckets per power-of-two octave (16), bounding the relative
    bucket width — and therefore the percentile error — to 1/16. *)

val create : unit -> t
(** An empty histogram. *)

val record : t -> float -> unit
(** Adds one sample, allocating only when the sample lands above every
    bucket seen so far.  @raise Invalid_argument on a negative or
    non-finite value (latencies are non-negative by construction). *)

val record_span : t -> from:float -> until:float -> unit
(** [record_span t ~from ~until] is [record t (until -. from)], but
    allocates no box for the difference: a caller that passes floats it
    already holds boxed, such as an event's fields, allocates nothing
    (see {!Stats.add_span}). *)

val count : t -> int
(** Total samples recorded. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [\[0, 100\]]: the upper edge of the bucket
    holding the nearest-rank sample (rank [max 1 (ceil (p/100 * count))]).
    The true sample [s] with that rank satisfies
    [s < percentile t p <= s * (1 + 1/sub_buckets)] for [s >= 1] (for
    [s < 1] the edge is [1.0]), so the reported value is a tight upper
    bound.  Returns [nan] on an empty histogram.
    @raise Invalid_argument if [p] is outside [\[0, 100\]]. *)

val buckets : t -> (int * float * float * int) list
(** Non-empty buckets, ascending: [(index, lower_edge, upper_edge, count)].
    The sample values of a bucket lie in [\[lower_edge, upper_edge)]. *)

val equal : t -> t -> bool
(** Same bucket counts everywhere. *)

val to_json : t -> Json.t
(** [{"count": n, "p50": …, "p90": …, "p99": …, "buckets": [{"bucket": i,
    "lo": …, "hi": …, "n": …}, …]}] with buckets ascending; the percentile
    fields are omitted when the histogram is empty (JSON has no NaN).
    Documented field-by-field in OBSERVABILITY.md. *)

val of_json : Json.t -> (t, string) result
(** Inverse of {!to_json} (reads only ["buckets"]; the percentile fields
    are derived data).  [of_json (to_json t)] equals [t] under {!equal}. *)
