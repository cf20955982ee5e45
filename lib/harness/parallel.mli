(** Parallel experiment runner: fans the independent measurement points of
    the staged experiment suite (see {!Experiments.staged}) across a
    fixed-size pool of OCaml 5 domains.

    Determinism: every point owns a private engine, RNG and catalog (no
    shared mutable state), each point's result lands in a dedicated slot,
    and outcomes are assembled from the slots in experiment order — so the
    rendered tables are byte-identical to the serial path for every job
    count.  [test/test_parallel.ml] pins this.

    Each call spawns its own pool and joins its workers before it returns,
    so no domain outlives the call. *)

val default_jobs : unit -> int
(** [Ccdb_util.Pool.default_jobs]: [Domain.recommended_domain_count ()]. *)

val cores : unit -> int
(** [Domain.recommended_domain_count ()] — the parallelism actually
    available to this process.  Recorded in BENCH.json so a speedup <= 1 on
    a single-core box reads as "no cores available", not "parallelism
    overhead". *)

val experiments :
  jobs:int -> Experiments.staged list -> Experiments.outcome list
(** The given experiments (the suite is {!Experiments.staged}), their
    points fanned across [jobs] domains.  [~jobs:1] takes the plain serial
    path ({!Experiments.all}) without spawning any domain. *)
