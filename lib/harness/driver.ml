module Rt = Ccdb_protocols.Runtime

type adaptive = Cumulative | Measured of float | Configured

type setup = {
  sites : int;
  items : int;
  replication : int;
  net : Ccdb_sim.Net.config;
  seed : int;
  restart_delay : float;
  detection : Ccdb_protocols.Deadlock.detection;
  thomas_write_rule : bool;
  prevention : Ccdb_protocols.Two_pl_system.prevention;
  adaptive : adaptive;
  reselect : bool;
  criterion : Ccdb_stl.Selector.criterion;
  commit : Rt.commit_protocol;
}

let default_setup =
  { sites = 4; items = 32; replication = 2;
    net = Ccdb_sim.Net.default_config; seed = 42;
    restart_delay = 50.;
    detection = Ccdb_protocols.Deadlock.default_detection;
    thomas_write_rule = false;
    prevention = Ccdb_protocols.Two_pl_system.No_prevention;
    adaptive = Cumulative; reselect = false;
    criterion = Ccdb_stl.Selector.Min_stl; commit = Rt.Paxos { f = 0 } }

type mode =
  | Pure of Ccdb_model.Protocol.t
  | Unified
  | Unified_forced of Ccdb_model.Protocol.t
  | Unified_full_lock
  | Dynamic
  | Mvto
  | Conservative

let modes =
  List.map (fun p -> Pure p) Ccdb_model.Protocol.all
  @ [ Mvto; Conservative; Unified ]
  @ List.map (fun p -> Unified_forced p) Ccdb_model.Protocol.all
  @ [ Unified_full_lock; Dynamic ]

let mode_name = function
  | Pure p -> "pure-" ^ Ccdb_model.Protocol.to_string p
  | Unified -> "unified"
  | Unified_forced p -> "unified-" ^ Ccdb_model.Protocol.to_string p
  | Unified_full_lock -> "unified-full-lock"
  | Dynamic -> "dynamic"
  | Mvto -> "pure-mvto"
  | Conservative -> "pure-cto"

let mode_of_string s =
  let s = String.lowercase_ascii s in
  let protocol_after prefix =
    let n = String.length prefix in
    if String.starts_with ~prefix s then
      Ccdb_model.Protocol.of_string (String.sub s n (String.length s - n))
    else None
  in
  match s, protocol_after "pure-", protocol_after "unified-" with
  | "full-lock", _, _ -> Some Unified_full_lock
  | "mvto", _, _ -> Some Mvto
  | "conservative", _, _ -> Some Conservative
  | _, Some p, _ -> Some (Pure p)
  | _, None, Some p -> Some (Unified_forced p)
  | _, None, None ->
    List.find_opt (fun m -> String.lowercase_ascii (mode_name m) = s) modes

type result = {
  summary : Metrics.summary;
  runtime : Rt.t;
  decisions : (Ccdb_model.Protocol.t * int) list;
  audit : Ccdb_analysis.Report.t option;
}

(* A uniform interface over the six systems: [decisions] is the protocol
   mix the run reports, and [verify], when present, is the system's own
   invariant, which replaces the single-version store checks. *)
type system = {
  submit : Ccdb_model.Txn.t -> unit;
  decisions : unit -> (Ccdb_model.Protocol.t * int) list;
  verify : (unit -> bool) option;
}

let force_protocol protocol (txn : Ccdb_model.Txn.t) =
  if Ccdb_model.Protocol.equal txn.protocol protocol then txn
  else
    Ccdb_model.Txn.make ~id:txn.id ~site:txn.site ~read_set:txn.read_set
      ~write_set:txn.write_set ~compute_time:txn.compute_time ~protocol

(* The one forcing-and-recording step: every transaction runs under
   [forced] when given, under its workload protocol otherwise, and the
   mix counts the protocol it actually runs, by [Protocol.rank]. *)
let runs ?forced ?verify submit =
  let tally = Array.make (List.length Ccdb_model.Protocol.all) 0 in
  { submit =
      (fun txn ->
        let txn =
          match forced with Some p -> force_protocol p txn | None -> txn
        in
        let rank = Ccdb_model.Protocol.rank txn.protocol in
        tally.(rank) <- tally.(rank) + 1;
        submit txn);
    decisions = (fun () -> Ccdb_model.Protocol.counted tally);
    verify }

(* Each mode's system.  Only [Dynamic] routes for itself and reports its
   selector's decisions. *)
let build_system ~(setup : setup) ~(spec : Ccdb_workload.Generator.spec) mode
    rt =
  let restart_delay = setup.restart_delay in
  let unified ?(semi_locks = true) () =
    { Core.Unified_system.semi_locks; restart_delay;
      detection = setup.detection }
  in
  let on_unified config =
    let sys = Core.Unified_system.create ~config rt in
    fun txn -> Core.Unified_system.submit sys txn
  in
  match mode with
  | Pure Ccdb_model.Protocol.Two_pl ->
    let sys =
      Ccdb_protocols.Two_pl_system.create rt
        ~config:
          { Ccdb_protocols.Two_pl_system.restart_delay;
            detection = setup.detection; prevention = setup.prevention }
    in
    runs ~forced:Ccdb_model.Protocol.Two_pl (fun txn ->
        Ccdb_protocols.Two_pl_system.submit sys txn)
  | Pure Ccdb_model.Protocol.T_o ->
    let sys =
      Ccdb_protocols.To_system.create rt
        ~config:
          { Ccdb_protocols.To_system.restart_delay;
            thomas_write_rule = setup.thomas_write_rule }
    in
    runs ~forced:Ccdb_model.Protocol.T_o (fun txn ->
        Ccdb_protocols.To_system.submit sys txn)
  | Pure Ccdb_model.Protocol.Pa ->
    let sys = Ccdb_protocols.Pa_system.create rt in
    runs ~forced:Ccdb_model.Protocol.Pa (fun txn ->
        Ccdb_protocols.Pa_system.submit sys txn)
  | Unified -> runs (on_unified (unified ()))
  | Unified_forced protocol -> runs ~forced:protocol (on_unified (unified ()))
  | Unified_full_lock -> runs (on_unified (unified ~semi_locks:false ()))
  | Dynamic ->
    let adaptive =
      match setup.adaptive with
      | Cumulative -> Core.Dynamic_cc.Cumulative
      | Measured window -> Core.Dynamic_cc.Measured { window }
      | Configured ->
        (* design-time parameters from the (first-phase) spec: the selector
           never sees a measurement, so it cannot track a phase change *)
        Core.Dynamic_cc.Configured
          (Ccdb_stl.Analytic.of_spec spec ~setup_items:setup.items
             ~setup_replication:setup.replication ~setup_sites:setup.sites
             ~one_way_delay:setup.net.Ccdb_sim.Net.base_delay)
    in
    let config =
      { Core.Dynamic_cc.unified = unified (); adaptive;
        reselect_on_restart = setup.reselect; criterion = setup.criterion }
    in
    let sys = Core.Dynamic_cc.create ~config rt in
    { submit = (fun txn -> Core.Dynamic_cc.submit sys txn);
      decisions = (fun () -> Core.Dynamic_cc.decisions sys);
      verify = None }
  | Mvto ->
    let sys =
      Ccdb_protocols.Mvto_system.create
        ~config:{ Ccdb_protocols.Mvto_system.restart_delay } rt
    in
    runs ~forced:Ccdb_model.Protocol.T_o
      ~verify:(fun () -> Ccdb_protocols.Mvto_system.verify sys)
      (fun txn -> Ccdb_protocols.Mvto_system.submit sys txn)
  | Conservative ->
    let sys = Ccdb_protocols.Cto_system.create rt in
    runs ~forced:Ccdb_model.Protocol.T_o (fun txn ->
        Ccdb_protocols.Cto_system.submit sys txn)

(* shared run body: [arrivals_of] turns the workload RNG into the arrival
   stream; [spec] is the (first-phase) spec, needed for [Configured]. *)
let execute ~(setup : setup) ?observer ~audit ?faults ?(verify_store = true)
    mode ~spec ~arrivals_of () =
  let catalog =
    Ccdb_storage.Catalog.create ~items:setup.items ~sites:setup.sites
      ~replication:setup.replication
  in
  (* The workload RNG is independent of the runtime's, so each arrival can
     be drawn when its predecessor fires and still be the one drawing the
     whole list first would give.  Role-targeted crash windows in the
     fault plan need the coordinator role — the home site of the earliest
     arrival, which is the first — before the plan is installed, so the
     first arrival is peeked here.  Acceptor role [k] is site [k] (the
     acceptor set is sites 0..2f for f >= 1; at f = 0 it is each
     transaction's home). *)
  let wl_rng = Ccdb_util.Rng.create ~seed:(setup.seed + 7919) in
  let arrivals = arrivals_of wl_rng in
  let n_arrivals = Ccdb_workload.Generator.remaining arrivals in
  let faults =
    Option.map
      (fun plan ->
        if Ccdb_sim.Fault_plan.role_crashes plan = [] then plan
        else
          let coordinator =
            match Ccdb_workload.Generator.peek arrivals with
            | None -> 0
            | Some (_, first) -> first.Ccdb_model.Txn.site
          in
          Ccdb_sim.Fault_plan.resolve plan ~coordinator ~acceptor:(fun k -> k))
      faults
  in
  let rt =
    Rt.create ~seed:setup.seed ?faults ~commit:setup.commit
      ~net_config:setup.net ~catalog ()
  in
  (match observer with Some f -> f rt | None -> ());
  (* MVTO keeps the physical store as a per-copy newest-version cache, not
     a write-all log, so the single-version store checks do not apply (the
     summary reports [Mvto_system.verify] in their place). *)
  let theorem2 = match mode with Mvto -> false | _ -> true in
  let stream =
    if audit then begin
      let st = Ccdb_analysis.Stream.create ~theorem2 ~catalog () in
      Rt.observe rt (Ccdb_analysis.Stream.feed st);
      Some st
    end
    else None
  in
  let system = build_system ~setup ~spec mode rt in
  Ccdb_sim.Engine.feed (Rt.engine rt) ~n:n_arrivals (fun () ->
      let at, txn = Ccdb_workload.Generator.pull arrivals in
      (at, fun () -> system.submit txn));
  (* The budget is an anti-livelock backstop, not a limit: scale it with the
     workload so million-transaction runs (EXPERIMENTS.md E13) fit. *)
  let budget = max 50_000_000 (400 * n_arrivals) in
  Rt.quiesce ~max_events:budget rt;
  let summary =
    match system.verify with
    | Some invariant when verify_store ->
      let ok = invariant () in
      { (Metrics.summarize ~verify:false rt) with
        serializable = ok; replica_consistent = ok }
    | Some _ | None -> Metrics.summarize ~verify:verify_store rt
  in
  let store = if theorem2 then Some (Rt.store rt) else None in
  let audit =
    Option.map
      (fun st ->
        let report = Ccdb_analysis.Stream.report ?store st in
        (* only then did the summary scan the single-version logs *)
        if theorem2 && verify_store then
          Ccdb_analysis.Theorem_audit.cross_check
            ~serializable:summary.serializable report
        else report)
      stream
  in
  { summary; runtime = rt; decisions = system.decisions (); audit }

let run ?(setup = default_setup) ?(n_txns = 200) ?observer ?(audit = false)
    ?faults ?verify_store mode spec =
  execute ~setup ?observer ~audit ?faults ?verify_store mode ~spec
    ~arrivals_of:(fun rng ->
      let generator =
        Ccdb_workload.Generator.create spec ~sites:setup.sites
          ~items:setup.items rng
      in
      Ccdb_workload.Generator.arrivals generator ~n:n_txns ~start:0.)
    ()

let run_phases ?(setup = default_setup) ?observer ?(audit = false) ?faults
    ?verify_store mode phases =
  match phases with
  | [] -> invalid_arg "Driver.run_phases: no phases"
  | (first_spec, _) :: _ ->
    execute ~setup ?observer ~audit ?faults ?verify_store mode
      ~spec:first_spec
      ~arrivals_of:(fun rng ->
        Ccdb_workload.Generator.phased_arrivals phases ~sites:setup.sites
          ~items:setup.items rng)
      ()
