module Pool = Ccdb_util.Pool

let default_jobs = Pool.default_jobs

let cores () = Domain.recommended_domain_count ()

(* The pool lives for one call: its workers are joined before the call
   returns, so they hold no core that a later run could reserve for its
   observers and take no part in a later run's collections. *)
let experiments ?(quick = false) ~jobs () =
  if jobs <= 1 then Experiments.all ~quick ()
  else
    Pool.with_pool ~jobs (fun pool ->
        Experiments.all ~quick
          ~runner:(fun tasks -> ignore (Pool.map pool (fun f -> f ()) tasks))
          ())
