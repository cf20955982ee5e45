(** Analytical parameter estimation (section 5.2's second option: the STL
    inputs "can either be collected periodically or estimated through
    analytical methods", citing Sevcik [14], Shyu & Li [15], Tay, Suri &
    Goodman [21]).

    Closed-form first-order approximations of every quantity the selector
    needs, computed from a workload description alone — no observation.
    Used to seed the dynamic system before any transaction has run, and as
    an independent sanity check on the online estimator.

    The approximations (documented per function) are deliberately simple,
    mean-value style:

    - per-copy throughputs from the arrival rate and the access pattern
      assuming uniform access;
    - lock-hold times from network round trips, compute time, and an
      M/M/1-style waiting factor [1 / (1 - rho)] at the bottleneck copy;
    - 2PL deadlock probability from the classic quadratic waiting argument
      (two waiters colliding head-on);
    - T/O rejection and PA back-off probabilities from the rate of
      conflicting grants falling inside the request's vulnerability window
      (one network delay for requests sent up front; the whole read+compute
      phase for prewrites). *)

type workload = {
  arrival_rate : float;     (** transactions per time unit *)
  mean_size : float;        (** logical items accessed per transaction *)
  read_fraction : float;
  items : int;
  replication : int;
  sites : int;
  one_way_delay : float;    (** mean network delay between distinct sites *)
  compute_mean : float;
}

val of_spec :
  Ccdb_workload.Generator.spec ->
  setup_items:int ->
  setup_replication:int ->
  setup_sites:int ->
  one_way_delay:float ->
  workload
(** Convenience: derive the analytic inputs from a generator spec. *)

val utilization : workload -> float
(** Mean per-copy utilization [rho] under 2PL-style holding, clamped to
    [0, 0.95]. *)

val snapshot : workload -> Estimator.snapshot
(** A full STL input set.  Per-copy rates are uniform (the model ignores
    skew); protocols share the base hold time but differ in their failure
    parameters. *)

val predicted_deadlock_probability : workload -> float
(** P_A approximation: [(K - 1) * rho^2 / 2] clamped to [0, 0.5] — the
    probability that a waiting transaction's holder is itself waiting on
    the first transaction's class of items. *)
