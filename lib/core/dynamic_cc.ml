type adaptivity =
  | Configured of Ccdb_stl.Analytic.workload
  | Cumulative
  | Measured of { window : float }

type config = {
  unified : Unified_system.config;
  reselect_on_restart : bool;
  criterion : Ccdb_stl.Selector.criterion;
  adaptive : adaptivity;
}

let default_config =
  { unified = Unified_system.default_config;
    reselect_on_restart = false;
    criterion = Ccdb_stl.Selector.Min_stl;
    adaptive = Cumulative }

type t = {
  rt : Ccdb_protocols.Runtime.t;
  system : Unified_system.t;
  selector : Ccdb_stl.Selector.t;
}

let create ?(config = default_config) rt =
  let measured source =
    let estimator = Ccdb_stl.Estimator.create ~source rt in
    fun () -> Ccdb_stl.Estimator.snapshot estimator
  in
  let snapshot =
    match config.adaptive with
    | Configured workload ->
      (* design-time parameters, computed once; the selector never sees a
         measurement (the analytical option of section 5.2), so no
         estimator subscribes *)
      let snap = Ccdb_stl.Analytic.snapshot workload in
      fun () -> snap
    | Cumulative -> measured Ccdb_stl.Estimator.Cumulative
    | Measured { window } -> measured (Ccdb_stl.Estimator.Windowed window)
  in
  let selector =
    Ccdb_stl.Selector.create ~criterion:config.criterion ~snapshot
      (Ccdb_protocols.Runtime.catalog rt)
  in
  let reselect =
    if config.reselect_on_restart then
      Some
        (fun txn ->
          (Ccdb_stl.Selector.choose selector
             ~now:(Ccdb_protocols.Runtime.now rt) txn)
            .chosen)
    else None
  in
  let system = Unified_system.create ~config:config.unified ?reselect rt in
  { rt; system; selector }

let submit t ?payload txn =
  let verdict =
    Ccdb_stl.Selector.choose t.selector ~now:(Ccdb_protocols.Runtime.now t.rt)
      txn
  in
  let routed =
    Ccdb_model.Txn.make ~id:txn.Ccdb_model.Txn.id ~site:txn.site
      ~read_set:txn.read_set ~write_set:txn.write_set
      ~compute_time:txn.compute_time ~protocol:verdict.chosen
  in
  Unified_system.submit t.system ?payload routed

let decisions t = Ccdb_stl.Selector.decisions t.selector
