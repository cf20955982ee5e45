(* Durability: fail-stop crashes (volatile-state wipe), write-ahead
   logging, Paxos Commit (2PC at f = 0) and WAL replay, audited by the
   analyzer's durability invariants across every driver mode. *)

module FP = Ccdb_sim.Fault_plan
module Net = Ccdb_sim.Net
module Rt = Ccdb_protocols.Runtime
module D = Ccdb_harness.Driver
module G = Ccdb_workload.Generator

let check = Alcotest.check

let plan_of_string s =
  match FP.of_string s with
  | Ok p -> p
  | Error e -> Alcotest.failf "of_string %S: %s" s e

let spec =
  { G.default with
    arrival_rate = 0.08;
    size_min = 1;
    size_max = 3;
    protocol_mix =
      [ (Ccdb_model.Protocol.Two_pl, 1.);
        (Ccdb_model.Protocol.T_o, 1.);
        (Ccdb_model.Protocol.Pa, 1.) ] }

let all_modes = D.modes

(* the durability invariants a fail-stop run must never trip, at any
   severity *)
let durability_checks =
  [ "thm.durability-lost"; "thm.partial-commit"; "thm.not-serializable";
    "lock.resurrected" ]

let assert_durably_clean name report =
  check Alcotest.int
    (name ^ " zero analyzer errors")
    0
    (List.length (Ccdb_analysis.Report.errors report));
  List.iter
    (fun c ->
      check Alcotest.int
        (Printf.sprintf "%s no %s findings" name c)
        0
        (List.length
           (List.filter
              (fun (f : Ccdb_analysis.Finding.t) -> f.check = c)
              (Ccdb_analysis.Report.findings report))))
    durability_checks

let recovery_of name (s : Ccdb_harness.Metrics.summary) =
  match s.recovery with
  | Some r -> r
  | None -> Alcotest.failf "%s: wipe=true run has no recovery counters" name

(* --- fail-stop acceptance: every mode, full wipe ------------------------ *)

(* the faulted acceptance plan with fail-stop semantics switched on *)
let wipe_plan =
  plan_of_string "drop=0.1,crash=1@400+300,crash=2@1200+300,wipe=true,seed=11"

let test_every_system_survives_fail_stop () =
  List.iter
    (fun mode ->
      let name = D.mode_name mode in
      let r = D.run ~n_txns:200 ~audit:true ~faults:wipe_plan mode spec in
      check Alcotest.int (name ^ " all txns commit") 200 r.summary.committed;
      if mode <> D.Mvto then begin
        check Alcotest.bool (name ^ " serializable") true
          r.summary.serializable;
        check Alcotest.bool (name ^ " replicas consistent") true
          r.summary.replica_consistent
      end;
      assert_durably_clean name (Option.get r.audit);
      (* the WAL really was engaged and replayed at both recoveries *)
      let rec_ = recovery_of name r.summary in
      check Alcotest.bool (name ^ " WAL written") true
        (rec_.Ccdb_harness.Metrics.wal_appends > 0);
      check Alcotest.int (name ^ " two replays") 2
        rec_.Ccdb_harness.Metrics.replays;
      (* Corollary 1 holds even under fail-stop: every PA negotiation entry
         is preserved by the wipe, so pure PA still never restarts *)
      if mode = D.Pure Ccdb_model.Protocol.Pa then
        check (Alcotest.float 0.) (name ^ " PA restart-free") 0.
          r.summary.restarts_per_txn)
    all_modes

(* --- without a payload a write implements its transaction id ------------- *)

(* Every mode but MVTO (which keeps versions, not a single-version log)
   writes the transaction id: each copy ends holding the id of the newest
   write in its implementation log, or 0 if none wrote it, fault-free and
   through the fail-stop plan's wipes and WAL replays. *)
let test_writes_implement_txn_ids () =
  let twr = { D.default_setup with thomas_write_rule = true } in
  let cases =
    (twr, D.Pure Ccdb_model.Protocol.T_o)
    :: List.filter_map
         (fun mode ->
           if mode = D.Mvto then None else Some (D.default_setup, mode))
         all_modes
  in
  List.iter
    (fun (label, faults) ->
      List.iter
        (fun ((setup : D.setup), mode) ->
          let name =
            label ^ D.mode_name mode
            ^ if setup.thomas_write_rule then " +twr" else ""
          in
          let r = D.run ~setup ~n_txns:200 ?faults mode spec in
          check Alcotest.int (name ^ " all txns commit") 200
            r.summary.committed;
          let store = Rt.store r.runtime in
          let written = ref 0 in
          for item = 0 to setup.items - 1 do
            List.iter
              (fun site ->
                let newest =
                  List.fold_left
                    (fun id (e : Ccdb_storage.Store.log_entry) ->
                      match e.kind with
                      | Ccdb_model.Op.Write -> e.txn
                      | Ccdb_model.Op.Read -> id)
                    0
                    (Ccdb_storage.Store.log store ~item ~site)
                in
                if newest <> 0 then incr written;
                check Alcotest.int
                  (Printf.sprintf "%s copy (%d, %d)" name item site)
                  newest
                  (Ccdb_storage.Store.read store ~item ~site))
              (Ccdb_storage.Catalog.copies (Rt.catalog r.runtime) item)
          done;
          check Alcotest.bool (name ^ " some copy written") true
            (!written > 0))
        cases)
    [ ("", None); ("fail-stop ", Some wipe_plan) ]

(* --- crash during recovery ---------------------------------------------- *)

(* Site 1's recovery at t=400 opens a replay window of 0.05 time units per
   record in its WAL.  By then the site has logged 9 records (pure-mvto)
   to 102 (unified under Paxos f=2) under this workload, a window of 0.45
   to 5.1 units, so the second crash at t=400.2 lands inside it in every
   case.  Replay is idempotent, so the run must end exactly as clean as a
   single-crash one.  Every mode runs it under 2PC (Paxos Commit with f=0,
   one acceptor at the home site); the modes that commit through [Commit]
   run it under Paxos Commit over three and five acceptors too (five sites
   for f=2). *)
let double_crash_plan =
  plan_of_string "crash=1@300+100,crash=1@400.2+200,wipe=true,seed=5"

let test_crash_during_recovery () =
  let paxos f =
    { D.default_setup with
      sites = Int.max 4 ((2 * f) + 1); commit = Rt.Paxos { f } }
  in
  let commit_modes =
    [ D.Pure Ccdb_model.Protocol.Two_pl; D.Pure Ccdb_model.Protocol.Pa;
      D.Unified; D.Dynamic ]
  in
  List.iter
    (fun (label, setup, modes) ->
      List.iter
        (fun mode ->
          let name = label ^ D.mode_name mode in
          let r =
            D.run ~setup ~n_txns:150 ~audit:true ~faults:double_crash_plan
              mode spec
          in
          check Alcotest.int (name ^ " all txns commit") 150
            r.summary.committed;
          assert_durably_clean name (Option.get r.audit);
          let rec_ = recovery_of name r.summary in
          check Alcotest.int (name ^ " second crash interrupted the replay") 1
            rec_.Ccdb_harness.Metrics.interrupted)
        modes)
    [ ("", D.default_setup, all_modes);
      ("paxos:1 ", paxos 1, commit_modes);
      ("paxos:2 ", paxos 2, commit_modes) ]

(* --- duplicated 2PC decision messages ----------------------------------- *)

(* A high duplication rate on every link hits the 2PC decision and ack
   traffic; the transport's exactly-once delivery plus the participant's
   decided-round table must keep applies idempotent.  The crashes force
   takeover and re-inquiry paths on top of the duplicates. *)
let dup_plan =
  plan_of_string
    "dup=0.3,drop=0.05,crash=1@400+300,crash=3@1100+250,wipe=true,seed=23"

let test_duplicate_decision_delivery () =
  List.iter
    (fun mode ->
      let name = D.mode_name mode in
      let r = D.run ~n_txns:150 ~audit:true ~faults:dup_plan mode spec in
      check Alcotest.int (name ^ " all txns commit") 150 r.summary.committed;
      assert_durably_clean name (Option.get r.audit);
      let stats = Option.get r.summary.transport in
      check Alcotest.bool (name ^ " duplicates actually happened") true
        (stats.Net.duplicated > 0))
    all_modes

(* --- duplicated / reordered Paxos messages ------------------------------- *)

(* The same drill with Paxos Commit over three acceptors: heavy duplication plus
   crashes hits every consensus message — 1a/1b/2a/2b, learned decisions,
   and re-inquiries from recovering participants.  A participant receiving
   a stale px-decision for a round it already applied must re-acknowledge
   without re-applying (applies stay idempotent, the partial-commit and
   durability invariants stay clean), and no consensus.* check may fire:
   no split decision, no ballot regression, no blocked round. *)
let test_duplicate_paxos_delivery () =
  let setup = { D.default_setup with commit = Rt.Paxos { f = 1 } } in
  List.iter
    (fun mode ->
      let name = "paxos " ^ D.mode_name mode in
      let r =
        D.run ~setup ~n_txns:150 ~audit:true ~faults:dup_plan mode spec
      in
      check Alcotest.int (name ^ " all txns commit") 150 r.summary.committed;
      assert_durably_clean name (Option.get r.audit);
      let report = Option.get r.audit in
      List.iter
        (fun c ->
          check Alcotest.int
            (Printf.sprintf "%s no %s findings" name c)
            0
            (List.length
               (List.filter
                  (fun (f : Ccdb_analysis.Finding.t) -> f.check = c)
                  (Ccdb_analysis.Report.findings report))))
        [ "consensus.split-decision"; "consensus.ballot-regression";
          "consensus.blocking-window" ];
      let stats = Option.get r.summary.transport in
      check Alcotest.bool (name ^ " duplicates actually happened") true
        (stats.Net.duplicated > 0))
    [ D.Pure Ccdb_model.Protocol.Two_pl; D.Unified; D.Dynamic ]

(* --- the durable machinery is inert without wipe=true -------------------- *)

let new_event_seen events =
  Array.exists
    (function
      | Rt.Request_dropped _ | Rt.Site_wiped _ | Rt.Wal_replayed _
      | Rt.Prepared _ | Rt.Decision_logged _ | Rt.Acceptor_promised _
      | Rt.Acceptor_accepted _ -> true
      | _ -> false)
    events

let test_durability_inert_without_wipe () =
  (* fault-free: no WAL appends, no recovery counters, none of the new
     events in the trace — the byte-identity guarantee's mechanism *)
  let trace = ref None in
  let r =
    D.run ~n_txns:80
      ~observer:(fun rt -> trace := Some (Ccdb_harness.Trace.attach rt))
      D.Unified spec
  in
  check Alcotest.int "fault-free: committed" 80 r.summary.committed;
  check Alcotest.bool "fault-free: not durable" false (Rt.durable r.runtime);
  check Alcotest.int "fault-free: WAL empty" 0
    (Ccdb_storage.Wal.appends (Rt.wal r.runtime));
  check Alcotest.bool "fault-free: no recovery counters" true
    (r.summary.recovery = None);
  check Alcotest.bool "fault-free: no durability events" false
    (new_event_seen (Ccdb_harness.Trace.to_array (Option.get !trace)));
  let fault_free_summary = r.summary in
  (* fail-pause faults (wipe=false): still no durability machinery *)
  let plan = plan_of_string "drop=0.1,crash=1@400+300,seed=11" in
  let trace = ref None in
  let r =
    D.run ~n_txns:80 ~faults:plan
      ~observer:(fun rt -> trace := Some (Ccdb_harness.Trace.attach rt))
      D.Unified spec
  in
  check Alcotest.bool "fail-pause: not durable" false (Rt.durable r.runtime);
  check Alcotest.int "fail-pause: WAL empty" 0
    (Ccdb_storage.Wal.appends (Rt.wal r.runtime));
  check Alcotest.bool "fail-pause: no recovery counters" true
    (r.summary.recovery = None);
  check Alcotest.bool "fail-pause: no durability events" false
    (new_event_seen (Ccdb_harness.Trace.to_array (Option.get !trace)));
  (* selecting Paxos Commit is equally inert without wipe=true: no WAL, no
     acceptor promises/accepts, byte-identical to the 2PC fault-free run *)
  let setup =
    { D.default_setup with commit = Rt.Paxos { f = 1 } }
  in
  let trace = ref None in
  let r_px =
    D.run ~setup ~n_txns:80
      ~observer:(fun rt -> trace := Some (Ccdb_harness.Trace.attach rt))
      D.Unified spec
  in
  check Alcotest.bool "paxos fault-free: not durable" false
    (Rt.durable r_px.runtime);
  check Alcotest.int "paxos fault-free: WAL empty" 0
    (Ccdb_storage.Wal.appends (Rt.wal r_px.runtime));
  check Alcotest.bool "paxos fault-free: no consensus events" false
    (new_event_seen (Ccdb_harness.Trace.to_array (Option.get !trace)));
  check Alcotest.bool "paxos fault-free: summary identical to 2PC" true
    (r_px.summary = fault_free_summary)

(* --- 2PC is Paxos Commit with f = 0 --------------------------------------- *)

(* At f = 0 the one acceptor is the home site, the same process as the
   ballot-0 leader, so a fault-free round sends exactly what two-phase
   commit sends: one begin, then one prepare, one vote (a phase-2a), one
   decision and one ack per participant.  No phase-2b crosses the network,
   and no decision goes back to the acceptor (it would make the decisions
   outnumber the prepares). *)
let test_two_pc_messages () =
  let prepared = ref 0 and rounds = Hashtbl.create 64 in
  let r =
    D.run ~n_txns:300 ~faults:(plan_of_string "wipe=true,seed=13")
      ~observer:(fun rt ->
        Rt.subscribe rt (function
          | Rt.Prepared { txn; round; _ } ->
            incr prepared;
            Hashtbl.replace rounds (txn, round) ()
          | _ -> ()))
      D.Unified spec
  in
  check Alcotest.int "all txns commit" 300 r.summary.committed;
  let by_kind = Net.messages_by_kind (Rt.net r.runtime) in
  let sent kind = Option.value ~default:0 (List.assoc_opt kind by_kind) in
  check Alcotest.int "one begin per round" (Hashtbl.length rounds)
    (sent "px-begin");
  List.iter
    (fun kind ->
      check Alcotest.int (kind ^ ": one per participant") !prepared
        (sent kind))
    [ "px-prepare"; "px-2a"; "px-decision"; "px-ack" ];
  List.iter
    (fun kind -> check Alcotest.int (kind ^ ": none") 0 (sent kind))
    [ "px-2b"; "px-1a"; "px-1b"; "px-inquire" ]

(* Every durable run gets the consensus checks: a split decision seeded
   into a 2PC (f = 0) trace, by turning one participant's commit of a
   round into an abort, is flagged. *)
let test_split_decision_at_f0 () =
  let trace = ref None in
  ignore
    (D.run ~n_txns:60 ~faults:(plan_of_string "wipe=true,seed=13")
       ~observer:(fun rt -> trace := Some (Ccdb_harness.Trace.attach rt))
       D.Unified spec);
  let events = Ccdb_harness.Trace.to_array (Option.get !trace) in
  let splits events =
    List.filter
      (fun (f : Ccdb_analysis.Finding.t) ->
        f.check = "consensus.split-decision")
      (Ccdb_analysis.Report.findings (Ccdb_analysis.Analyzer.analyze events))
  in
  check Alcotest.int "unseeded: no split" 0 (List.length (splits events));
  (* the second participant to commit the first round with two *)
  let committed = Hashtbl.create 16 and seeded = ref None in
  let events =
    Array.map
      (fun e ->
        match e with
        | Rt.Decision_logged ({ txn; round; commit = true; _ } as d)
          when !seeded = None ->
          if Hashtbl.mem committed (txn, round) then begin
            seeded := Some txn;
            Rt.Decision_logged { d with commit = false }
          end
          else begin
            Hashtbl.add committed (txn, round) ();
            e
          end
        | e -> e)
      events
  in
  match splits events with
  | [ f ] ->
    check (Alcotest.list Alcotest.int) "names the seeded txn"
      [ Option.get !seeded ] f.txns
  | fs -> Alcotest.failf "expected one split decision, got %d" (List.length fs)

(* --- restart backoff ----------------------------------------------------- *)

let test_restart_backoff () =
  let catalog = Ccdb_storage.Catalog.create ~items:4 ~sites:2 ~replication:1 in
  (* fault-free runtime: exactly base, every attempt (byte identity) *)
  let rt =
    Rt.create ~net_config:Net.default_config ~catalog ()
  in
  List.iter
    (fun attempt ->
      List.iter
        (fun site ->
          check (Alcotest.float 0.) "fault-free backoff is the base" 50.
            (Rt.restart_backoff rt ~site ~base:50. ~attempt))
        [ 0; 1 ])
    [ 0; 1; 5; 40 ];
  (* faulted runtime: jittered doubling under the cap, per site *)
  let rt =
    Rt.create ~faults:(plan_of_string "drop=0.1,seed=3")
      ~net_config:Net.default_config ~catalog ()
  in
  for attempt = 0 to 20 do
    List.iter
      (fun site ->
        let d = Rt.restart_backoff rt ~site ~base:50. ~attempt in
        let uncapped =
          Float.min 800. (50. *. (2. ** float_of_int (min attempt 16)))
        in
        check Alcotest.bool "within jitter band" true
          (d >= uncapped *. 0.5 -. 1e-9 && d < uncapped))
      [ 0; 1 ]
  done;
  (* the cap really caps: large attempts never exceed it *)
  for _ = 0 to 50 do
    check Alcotest.bool "capped" true
      (Rt.restart_backoff rt ~site:0 ~base:50. ~attempt:30 <= 800.)
  done;
  (* per-site streams are independent: site 0's draws are reproduced
     exactly by a fresh runtime no matter how many draws site 1 makes in
     between (a shared stream would shift them) *)
  let draws rt site =
    List.init 8 (fun attempt -> Rt.restart_backoff rt ~site ~base:50. ~attempt)
  in
  let fresh () =
    Rt.create ~faults:(plan_of_string "drop=0.1,seed=3")
      ~net_config:Net.default_config ~catalog ()
  in
  let rt_a = fresh () in
  let site0_alone = draws rt_a 0 in
  let rt_b = fresh () in
  ignore (draws rt_b 1);
  let site0_interleaved = draws rt_b 0 in
  check Alcotest.bool "per-site RNG streams" true
    (site0_alone = site0_interleaved)

(* --- E12 ----------------------------------------------------------------- *)

let quick_experiment id =
  Ccdb_harness.Experiments.run_one
    (List.find
       (fun s -> Ccdb_harness.Experiments.id s = id)
       (Ccdb_harness.Experiments.staged ~quick:true ()))

let test_e12_runs () =
  let o = quick_experiment "E12" in
  check Alcotest.string "id" "E12" o.Ccdb_harness.Experiments.id;
  check Alcotest.bool "rendered" true
    (String.length (Ccdb_harness.Experiments.render o) > 0)

let test_e16_runs () =
  let o = quick_experiment "E16" in
  check Alcotest.string "id" "E16" o.Ccdb_harness.Experiments.id;
  let rendered = Ccdb_harness.Experiments.render o in
  check Alcotest.bool "rendered" true (String.length rendered > 0);
  (* the headline must be measured, not the fallback wording: the chaos
     drill really did land the coordinator crash inside a commit round,
     which 2PC held open past the crash window and f >= 1 decided inside
     it *)
  check Alcotest.bool "crash landed in a round" false
    (let fallback = "the window missed the commit point" in
     let n = String.length rendered and m = String.length fallback in
     let rec contains i =
       i + m <= n && (String.sub rendered i m = fallback || contains (i + 1))
     in
     contains 0)

(* --- wipe drops in item order -------------------------------------------- *)

(* A fail-stop wipe announces the requests it drops in ascending item
   order.  On this contended workload the crash of site 2 drops requests
   on several items in each system whose wipe drops requests. *)
let test_wipe_drop_order () =
  let plan =
    plan_of_string
      "drop=0.05,crash=1@300+300,crash=2@900+200,wipe=true,seed=11"
  in
  let spec = { spec with arrival_rate = 0.12; size_max = 4 } in
  let setup = { D.default_setup with items = 16 } in
  List.iter
    (fun mode ->
      let name = D.mode_name mode in
      let trace = ref None in
      ignore
        (D.run ~setup ~n_txns:60 ~faults:plan
           ~observer:(fun rt -> trace := Some (Ccdb_harness.Trace.attach rt))
           mode spec);
      (* each wipe emits its drops, then its Site_wiped *)
      let wipes, _ =
        List.fold_left
          (fun (wipes, current) (e : Rt.event) ->
            match e with
            | Rt.Request_dropped { item; _ } -> (wipes, item :: current)
            | Rt.Site_wiped _ -> (List.rev current :: wipes, [])
            | _ -> (wipes, current))
          ([], [])
          (Ccdb_harness.Trace.events (Option.get !trace))
      in
      check Alcotest.bool
        (name ^ " one wipe drops requests on several items")
        true
        (List.exists
           (fun items -> List.length (List.sort_uniq Int.compare items) > 1)
           wipes);
      List.iter
        (fun items ->
          check
            (Alcotest.list Alcotest.int)
            (name ^ " drops in ascending item order")
            (List.stable_sort Int.compare items)
            items)
        wipes)
    [ D.Pure Ccdb_model.Protocol.Two_pl; D.Pure Ccdb_model.Protocol.T_o;
      D.Unified ]

let suites =
  [ ( "recovery.systems",
      [ Alcotest.test_case "fail-stop acceptance, all systems" `Slow
          test_every_system_survives_fail_stop;
        Alcotest.test_case "crash during recovery, all systems" `Slow
          test_crash_during_recovery;
        Alcotest.test_case "duplicated decisions, all systems" `Slow
          test_duplicate_decision_delivery;
        Alcotest.test_case "duplicated paxos messages" `Slow
          test_duplicate_paxos_delivery;
        Alcotest.test_case "wipe drops in item order" `Quick
          test_wipe_drop_order;
        Alcotest.test_case "writes implement txn ids, all systems" `Slow
          test_writes_implement_txn_ids ] );
    ( "recovery.gating",
      [ Alcotest.test_case "inert without wipe" `Quick
          test_durability_inert_without_wipe;
        Alcotest.test_case "restart backoff" `Quick test_restart_backoff;
        Alcotest.test_case "2PC sends 2PC's messages at f=0" `Quick
          test_two_pc_messages;
        Alcotest.test_case "split decision flagged at f=0" `Quick
          test_split_decision_at_f0;
        Alcotest.test_case "E12 quick" `Slow test_e12_runs;
        Alcotest.test_case "E16 quick" `Slow test_e16_runs ] ) ]
