module Pool = Ccdb_util.Pool

let cores () = Domain.recommended_domain_count ()

let clamp_jobs ~prog n =
  let jobs = max (min n (cores ())) (min n 2) in
  if jobs < n then Printf.eprintf "%s: --jobs %d lowered to %d\n%!" prog n jobs;
  jobs

(* The pool lives for one call: its workers are joined before the call
   returns, so they hold no core that a later run could reserve for its
   observers and take no part in a later run's collections. *)
let experiments ~jobs staged =
  if jobs <= 1 then Experiments.all staged
  else
    Pool.with_pool ~jobs (fun pool ->
        Experiments.all
          ~runner:(fun tasks -> ignore (Pool.map pool (fun f -> f ()) tasks))
          staged)
