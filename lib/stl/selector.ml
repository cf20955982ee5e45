type verdict = {
  chosen : Ccdb_model.Protocol.t;
  costs : (Ccdb_model.Protocol.t * float) list;
}

let footprint catalog ~site ~read_set ~write_set =
  { Txn_cost.read_copies =
      Ccdb_storage.Catalog.read_copies catalog ~site read_set;
    write_copies = Ccdb_storage.Catalog.write_copies catalog write_set }

type criterion = Min_stl | Min_response_time

let cost ~criterion (snap : Estimator.snapshot) fp protocol =
  match criterion with
  | Min_response_time -> snap.response_time protocol
  | Min_stl -> (
    match protocol with
    | Ccdb_model.Protocol.Two_pl ->
      Txn_cost.stl_two_pl snap.params snap.rates snap.two_pl fp
    | Ccdb_model.Protocol.T_o ->
      Txn_cost.stl_to snap.params snap.rates snap.t_o fp
    | Ccdb_model.Protocol.Pa ->
      Txn_cost.stl_pa snap.params snap.rates snap.pa fp)

let evaluate ?(criterion = Min_stl) snap fp =
  let costs =
    List.map (fun p -> (p, cost ~criterion snap fp p)) Ccdb_model.Protocol.all
  in
  let chosen, _ =
    List.fold_left
      (fun ((_, best_c) as best) ((_, c) as cand) ->
        if c < best_c then cand else best)
      (List.hd costs) (List.tl costs)
  in
  { chosen; costs }

(* how long a class decision is reused before it is re-evaluated *)
let class_cache_ttl = 100.

type t = {
  criterion : criterion;
  catalog : Ccdb_storage.Catalog.t;
  snapshot : unit -> Estimator.snapshot;
  cache : (int * int, float * verdict) Hashtbl.t; (* class -> expiry, verdict *)
  counts : (Ccdb_model.Protocol.t, int ref) Hashtbl.t;
}

let create ?(criterion = Min_stl) ?snapshot catalog estimator =
  let snapshot =
    match snapshot with
    | Some f -> f
    | None -> fun () -> Estimator.snapshot estimator
  in
  { criterion; catalog; snapshot;
    cache = Hashtbl.create 32; counts = Hashtbl.create 4 }

let record t protocol =
  match Hashtbl.find_opt t.counts protocol with
  | Some r -> incr r
  | None -> Hashtbl.add t.counts protocol (ref 1)

let choose t ~now (txn : Ccdb_model.Txn.t) =
  let key = (List.length txn.read_set, List.length txn.write_set) in
  let fresh () =
    let fp =
      footprint t.catalog ~site:txn.site ~read_set:txn.read_set
        ~write_set:txn.write_set
    in
    let snap = t.snapshot () in
    let verdict = evaluate ~criterion:t.criterion snap fp in
    Hashtbl.replace t.cache key (now +. class_cache_ttl, verdict);
    verdict
  in
  let verdict =
    match Hashtbl.find_opt t.cache key with
    | Some (expiry, verdict) when now < expiry -> verdict
    | Some _ | None -> fresh ()
  in
  record t verdict.chosen;
  verdict

let decisions t =
  Hashtbl.fold (fun p r acc -> (p, !r) :: acc) t.counts []
  |> List.sort (fun (a, _) (b, _) -> Ccdb_model.Protocol.compare a b)
