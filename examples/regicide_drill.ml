(* Regicide drill: kill the coordinator mid-commit, under 2PC and under
   Paxos Commit with f = 1, and watch the outcomes diverge.

   The drill is two-pass per engine (the E16 chaos drill, EXPERIMENTS.md).
   A durable fault-free probe finds the coordinator — the home site of the
   earliest arrival, i.e. the origin of the first lock request — and the
   instant its first commit round prepares.  The measured run then opens a
   role-targeted fail-stop window (crash=coordinator, wipe=true) starting
   one time unit later, so the crash provably lands inside a commit round.

   2PC is Paxos Commit with f = 0: the decision lives on one acceptor,
   the coordinator itself, so that round stalls.  The participants'
   inquiries wait out the crash; after recovery the coordinator replays
   its accept records and finishes the round by takeover.  Under Paxos
   Commit with f = 1 the decision lives on three acceptors; the survivors
   time out, take over leadership with a higher ballot, and decide the
   same round while the old coordinator is still dead (DESIGN.md section
   15).  The drill measures each engine's longest commit round, from a
   round's first prepare to its first commit decision, against the
   crash window.

   Run with: dune exec examples/regicide_drill.exe *)

module D = Ccdb_harness.Driver
module FP = Ccdb_sim.Fault_plan
module Rt = Ccdb_protocols.Runtime

let n_txns = 150
let sites = 5
let window = 400.

let spec =
  { Ccdb_workload.Generator.default with
    arrival_rate = 0.1;
    size_min = 1;
    size_max = 3;
    protocol_mix =
      [ (Ccdb_model.Protocol.Two_pl, 1.); (Ccdb_model.Protocol.T_o, 1.);
        (Ccdb_model.Protocol.Pa, 1.) ] }

let setup commit =
  { D.default_setup with
    D.sites; commit; net = Ccdb_sim.Net.default_config ~sites }

(* pass 1: when does the coordinator's first commit round prepare? *)
let probe commit =
  let coord = ref None
  and homes = Hashtbl.create 64
  and t0 = ref None in
  let observe rt =
    Rt.subscribe rt (function
      | Rt.Lock_requested { txn; origin; _ } ->
        if !coord = None then coord := Some origin;
        if not (Hashtbl.mem homes txn) then Hashtbl.add homes txn origin
      | Rt.Prepared { txn; at; _ } when !t0 = None -> (
        match (!coord, Hashtbl.find_opt homes txn) with
        | Some c, Some h when c = h -> t0 := Some at
        | _ -> ())
      | _ -> ())
  in
  ignore
    (D.run ~setup:(setup commit) ~n_txns ~observer:observe
       ~faults:(FP.make ~seed:11 ~wipe:true ())
       D.Unified spec);
  match (!coord, !t0) with
  | Some c, Some t -> (c, t)
  | _ -> failwith "probe saw no coordinator commit round"

(* pass 2: the same run with the coordinator fail-stopped inside that
   round; returns the run, its longest commit round and its takeovers *)
let regicide label commit =
  let coord, t0 = probe commit in
  Format.printf
    "%-10s coordinator is site %d; its first round prepares at t=%.0f — \
     killing it at t=%.0f for %.0f units@."
    label coord t0 (t0 +. 1.) window;
  let plan =
    FP.make ~seed:11 ~wipe:true
      ~role_crashes:
        [ { FP.role = FP.Coordinator;
            r_at = t0 +. 1.; r_recover_at = t0 +. 1. +. window } ]
      ()
  in
  let prepared = Hashtbl.create 64 and longest = ref 0.
  and takeovers = Hashtbl.create 16 in
  let observe rt =
    Rt.subscribe rt (function
      | Rt.Prepared { txn; round; at; _ } ->
        if not (Hashtbl.mem prepared (txn, round)) then
          Hashtbl.add prepared (txn, round) at
      | Rt.Decision_logged { txn; round; commit = true; at; _ } -> (
        match Hashtbl.find_opt prepared (txn, round) with
        | Some t ->
          Hashtbl.remove prepared (txn, round);
          longest := Float.max !longest (at -. t)
        | None -> ())
      | Rt.Acceptor_promised { txn; round; ballot; _ } when ballot > 0 ->
        Hashtbl.replace takeovers (txn, round) ()
      | _ -> ())
  in
  let r =
    D.run ~setup:(setup commit) ~n_txns ~observer:observe ~audit:true
      ~faults:plan D.Unified spec
  in
  (r, !longest, Hashtbl.length takeovers)

let () =
  print_endline "=== Regicide drill ===";
  Format.printf
    "%d transactions, %d sites, fail-stop wipe; the crash window opens one \
     time unit@.after the coordinator's first commit round prepares@.@."
    n_txns sites;

  let r_2pc, l_2pc, tk_2pc = regicide "2PC" (Rt.Paxos { f = 0 }) in
  let r_px, l_px, tk_px = regicide "Paxos f=1" (Rt.Paxos { f = 1 }) in

  let row label (r : D.result) longest tk =
    Format.printf
      "%-10s committed=%d/%d  S=%7.1f  longest-round=%6.1f  takeovers=%d  \
       audit=%s@."
      label r.D.summary.committed n_txns r.D.summary.mean_system_time longest
      tk
      (if Ccdb_analysis.Report.is_clean (Option.get r.D.audit) then "clean"
       else "FINDINGS")
  in
  print_newline ();
  row "2PC" r_2pc l_2pc tk_2pc;
  row "Paxos f=1" r_px l_px tk_px;

  Format.printf
    "@.2PC: the round the crash caught stayed open %.1f units, past the \
     %.0f-unit@.window: its one acceptor was the dead coordinator, which \
     finished it only@.after recovery, from its replayed log (committed \
     %d/%d).@."
    l_2pc window r_2pc.D.summary.committed n_txns;
  Format.printf
    "Paxos f=1: %d takeover(s) — the surviving acceptors raised the \
     ballot and decided@.the dead coordinator's rounds; the longest took \
     %.1f units.@."
    tk_px l_px;

  let clean r = Ccdb_analysis.Report.is_clean (Option.get r.D.audit) in
  if
    r_2pc.D.summary.committed = n_txns
    && r_px.D.summary.committed = n_txns
    && l_2pc > window && l_px <= window
    && tk_px > 0
    && clean r_2pc && clean r_px
  then
    print_endline
      "\n=> the same regicide that stalled 2PC's round until the \
       coordinator came back\n   was survived in-stride by Paxos Commit: \
       consensus made the commit decision\n   nobody's single point of \
       failure"
  else begin
    print_endline "\n=> THE DRILL DID NOT DIVERGE AS EXPECTED";
    Format.printf "2PC audit: %a@." Ccdb_analysis.Report.pp
      (Option.get r_2pc.D.audit);
    Format.printf "Paxos audit: %a@." Ccdb_analysis.Report.pp
      (Option.get r_px.D.audit);
    exit 1
  end
