(** A fixed-size work pool on OCaml 5 domains.

    A pool owns [jobs - 1] worker domains; the submitting domain is the
    remaining executor, so a pool of [jobs:n] runs at most [n] tasks at
    once.  With [jobs:1] no domain is ever spawned and every task runs
    inline on the caller, which makes the single-job path byte-identical
    to plain [List.map] — the property the deterministic experiment
    harness is pinned on.

    Tasks must be independent: they may share no mutable state with each
    other or with the caller beyond what they were built over.  [map] is
    not reentrant — do not call it from inside a task of the same pool. *)

type t

val in_task : unit -> bool
(** Whether the calling domain is running a task of some pool's {!map}
    (on a worker, or inline on the submitting domain). *)

val reserve_domain : unit -> bool
(** Claims one extra domain for the caller's own use, outside any pool:
    [true] when the caller is not inside a pool task ({!in_task}) and the
    process, counting the domains every live pool has spawned and every
    unreleased reservation, then runs no more domains than
    [Domain.recommended_domain_count ()].  A [true] must be paired with
    one {!release_domain} once the claimed domain is joined. *)

val release_domain : unit -> unit
(** Returns a domain claimed with {!reserve_domain}. *)

val create : jobs:int -> t
(** Spawns [jobs - 1] worker domains.  @raise Invalid_argument when
    [jobs < 1]. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map: the result list matches the input
    order no matter which domain ran which element.  If one or more
    tasks raise, the exception of the smallest input index is re-raised
    on the caller after every task of the batch has settled. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], apply, then join the worker domains (also on exception). *)
